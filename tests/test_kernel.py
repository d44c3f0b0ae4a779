"""Batched orbit-product paths against the scalar loops they replace.

The batched code multiplies the same factors in the same order, takes logs
with ``math.log`` and adds terms in the same sequence as the per-word,
per-point and per-block loops below, so every comparison is exact equality
(signed zeros included), not a tolerance.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocyclib import regularity
from cocyclib.cocycle import (
    LocallyConstantCocycle,
    _orbit_rows,
    backward_product,
    evaluate,
    inverse_cocycle,
    iterate,
    iterate_many,
)
from cocyclib.fixtures import (
    mixed_two_block_cocycle,
    u0_coboundary_fixture,
    unipotent_example,
    window2_cocycle,
)
from cocyclib.holonomy import (
    _distinct_holonomies,
    _row_codes,
    holonomy_stack,
    stable_holonomy,
    unstable_holonomy,
)
from cocyclib.measure import (
    MarkovMeasure,
    cylinder_measure,
    golden_mean_markov,
    sample_point,
    sample_stable_partner,
    sample_unstable_partner,
    uniform_bernoulli,
)
from cocyclib.regularity import (
    _block_costs,
    distortion_growth_slope,
    finite_scale_exponent,
)
from cocyclib.sft import (
    TransitionMatrix,
    admissible_word_array,
    admissible_words,
    bracket,
    enumerate_periodic,
    same_future,
    same_past,
)
from cocyclib.transfer import _Transport, default_basepoints

# ---------------------------------------------------------------------------
# scalar references


def reference_product(a, x, n):
    """A^n(x) one factor at a time, inverting each factor for n < 0."""
    result = np.eye(a.dimension)
    for j in range(n):
        result = evaluate(a, x.shifted(j)) @ result
    for j in range(1, -n + 1):
        result = np.linalg.inv(evaluate(a, x.shifted(-j))) @ result
    return result


def reference_inverted_table_product(inv, x, n):
    """inv(shift^-n x) ... inv(shift^-1 x), one table entry at a time."""
    result = np.eye(inv.dimension)
    for j in range(1, n + 1):
        result = evaluate(inv, x.shifted(-j)) @ result
    return result


def distortion_of(m):
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[0] / s[-1])


def reference_finite_scale(a, mu, n):
    k = a.window_radius
    total = 0.0
    for w in admissible_words(a.q, n + 2 * k):
        weight = cylinder_measure(mu, -k, w)
        if weight == 0.0:
            continue
        prod = np.eye(a.dimension)
        for t in range(n):
            prod = a.table[w[t: t + 2 * k + 1]] @ prod
        total += weight * math.log(np.linalg.norm(prod, 2))
    return total / n


def reference_block_costs(a, x, n_steps, count, direction):
    return [math.log(distortion_of(reference_product(
        a, x.shifted(direction * j * n_steps), direction * n_steps)))
        for j in range(count)]


def reference_slope(a, points, n_max):
    eye = np.eye(a.dimension)
    sums = np.zeros(n_max)
    counts = np.zeros(n_max)
    for x in points:
        fwd = eye
        bwd = eye
        for n in range(1, n_max + 1):
            fwd = (evaluate(a, x.shifted(n - 1)) @ eye) @ fwd
            bwd = np.linalg.inv(evaluate(a, x.shifted(-n)) @ eye) @ bwd
            sums[n - 1] += math.log(distortion_of(fwd)) + math.log(distortion_of(bwd))
            counts[n - 1] += 2
    means = sums / counts
    ns = np.arange(1, n_max + 1, dtype=float)
    return float(np.polyfit(ns, means, 1)[0]), means


# ---------------------------------------------------------------------------
# random systems


def random_system(n_symbols, radius, dim, seed):
    """Irreducible SFT, full-support Markov measure and a random window-k
    cocycle; some entries are signed zeros, which A @ Id does not keep."""
    rng = np.random.default_rng(seed)
    while True:
        try:
            q = TransitionMatrix.from_rows((rng.random((n_symbols, n_symbols)) < 0.6)
                                           .astype(int).tolist())
            break
        except ValueError:
            continue
    p = q.as_array * rng.uniform(0.2, 1.0, (n_symbols, n_symbols))
    mu = MarkovMeasure.from_matrix(p / p.sum(axis=1, keepdims=True))

    def value(w):
        m = rng.normal(size=(dim, dim)) + 2.0 * np.eye(dim)
        if dim > 1 and rng.random() < 0.5:
            m[0, 1] = -0.0
        return m

    return mu, LocallyConstantCocycle.from_function(q, radius, value), rng


systems = dict(n_symbols=st.integers(1, 3), radius=st.integers(0, 2),
               dim=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), chunk=st.sampled_from([1, 2, 5, None]), **systems)
def test_finite_scale_exponent_equals_per_word_sum(n, chunk, n_symbols, radius, dim,
                                                   seed):
    mu, a, _ = random_system(n_symbols, radius, dim, seed)
    # keep the scalar reference small: at most 3^7 words
    while n > 1 and n_symbols ** (n + 2 * radius) > 3 ** 7:
        n -= 1
    expected = reference_finite_scale(a, mu, n)
    # small subtree sizes force the sliced walk through the word tree
    size = regularity._SUBTREE_PREFIXES if chunk is None else chunk
    with mock.patch.object(regularity, "_SUBTREE_PREFIXES", size):
        assert finite_scale_exponent(a, mu, n) == expected


@settings(max_examples=40, deadline=None)
@given(n=st.integers(-6, 6), **systems)
def test_backward_iterate_equals_inverse_factor_loop(n, n_symbols, radius, dim, seed):
    mu, a, rng = random_system(n_symbols, radius, dim, seed)
    x = sample_point(mu, rng, int(rng.integers(1, 12)), start=int(rng.integers(-8, 3)))
    assert same_bits(iterate(a, x, n), reference_product(a, x, n))
    inv = inverse_cocycle(a)
    assert same_bits(backward_product(inv, x, abs(n)),
                     reference_inverted_table_product(inv, x, abs(n)))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(-12, 12), n_points=st.integers(0, 4), **systems)
@example(n=0, n_points=2, n_symbols=2, radius=2, dim=1, seed=0)
@example(n=-12, n_points=0, n_symbols=3, radius=1, dim=1, seed=0)
def test_orbit_rows_equal_per_window_lookups(n, n_points, n_symbols, radius, dim, seed):
    mu, a, rng = random_system(n_symbols, radius, dim, seed)
    points = [sample_point(mu, rng, int(rng.integers(1, 12)), start=int(rng.integers(-8, 3)))
              for _ in range(n_points)]
    # product order: the factors at 0, 1, ..., n-1, or at -1, -2, ..., n for n < 0
    centres = range(n) if n >= 0 else range(-1, n - 1, -1)
    expected = [[a.index[x.window(c - radius, c + radius)] for c in centres]
                for x in points]
    words = _words(points, abs(n) + radius)
    got = _orbit_rows(a, words, n)
    assert got.shape == (n_points, abs(n))
    assert got.tolist() == expected
    assert _orbit_rows(a, words[:0], n).shape == (0, abs(n))


def _random_points(mu, rng, count):
    return [sample_point(mu, rng, int(rng.integers(1, 12)), start=int(rng.integers(-8, 3)))
            for _ in range(count)]


def _words(points, r):
    return np.array([x.window(-r, r) for x in points], dtype=np.int64).reshape(len(points),
                                                                             2 * r + 1)


@settings(max_examples=60, deadline=None)
@given(order=st.sampled_from(["us", "su"]), n_points=st.integers(1, 4), **systems)
@example(order="su", n_points=3, n_symbols=3, radius=2, dim=2, seed=5)
def test_word_transport_legs_are_the_point_legs(order, n_points, n_symbols, radius, dim,
                                                 seed):
    # each leg end of the word-array transport is the window of the point
    # the per-point transport builds, and the precondition of each leg holds
    # without being checked
    mu, a, rng = random_system(n_symbols, radius, dim, seed)
    bps = default_basepoints(a.q)
    points = _random_points(mu, rng, n_points)
    r = 2 * radius  # the stage radius of superdiagonal_peel
    paths = _Transport(bps, _words(points, r), order)
    bases = [bps[x[0]] for x in points]
    if order == "us":
        mids = [bracket(x, w) for x, w in zip(points, bases)]
        kinds = ("stable", "unstable")
    else:
        mids = [bracket(w, x) for x, w in zip(points, bases)]
        kinds = ("unstable", "stable")
    assert paths.symbols.tolist() == [x[0] for x in points]
    for (kind, frm, to), expected, ends in zip(paths.legs, kinds,
                                               ((bases, mids), (mids, points))):
        assert kind == expected
        same = same_future if kind == "stable" else same_past
        assert all(same(y, z) for y, z in zip(*ends))
        n = radius if kind == "stable" else -radius
        for words, pts in zip((frm, to), ends):
            assert same_bits(words, _words(pts, r))
            assert same_bits(iterate_many(a, words, n), [iterate(a, y, n) for y in pts])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["stable", "unstable"]), extra=st.integers(0, 2),
       n_points=st.integers(1, 4), depth=st.integers(0, 3), length=st.integers(1, 6),
       **systems)
@example(kind="unstable", extra=0, n_points=3, depth=0, length=6, n_symbols=2, radius=2,
         dim=2, seed=1)
def test_holonomy_stack_equals_single_point_holonomies(kind, extra, n_points, depth,
                                                       length, n_symbols, radius, dim,
                                                       seed):
    # the stacked rule that the transport and the holonomy experiment share
    # equals stable_holonomy / unstable_holonomy on each pair of partners
    mu, a, rng = random_system(n_symbols, radius, dim, seed)
    partner, single = ((sample_stable_partner, stable_holonomy) if kind == "stable"
                       else (sample_unstable_partner, unstable_holonomy))
    frm = _random_points(mu, rng, n_points)
    to = [partner(mu, x, rng, length, depth) for x in frm]
    r = 2 * radius + extra
    got = holonomy_stack(a, kind, _words(frm, r), _words(to, r))
    assert same_bits(got, [single(a, y, z).matrix for y, z in zip(frm, to)])


@pytest.mark.parametrize("system", ["2-shift", "golden-mean"])
@pytest.mark.parametrize("kind", ["stable", "unstable"])
@pytest.mark.parametrize("radius", [0, 1, 2])
def test_holonomy_stack_with_repeated_rows_equals_single_point_holonomies(system, kind,
                                                                         radius):
    # rows that repeat, or differ only outside the span a holonomy reads,
    # share one solve, and each still equals its single-point holonomy
    mu = uniform_bernoulli(2) if system == "2-shift" else golden_mean_markov()
    gen = np.random.default_rng(radius)

    def value(w):
        m = gen.normal(size=(2, 2)) + 2.0 * np.eye(2)
        m[0, 1] = -0.0
        return m

    a = LocallyConstantCocycle.from_function(mu.support, radius, value)
    rng = np.random.default_rng((radius, len(kind)))
    partner, single = ((sample_stable_partner, stable_holonomy) if kind == "stable"
                       else (sample_unstable_partner, unstable_holonomy))
    frm = _random_points(mu, rng, 6)
    to = [partner(mu, x, rng, int(rng.integers(1, 6)), int(rng.integers(0, 3)))
          for x in frm]
    pick = rng.integers(0, 6, 40)
    r = 2 * radius + 2
    frm_w, to_w = _words(frm, r)[pick], _words(to, r)[pick]
    assert len(_distinct_holonomies(a, kind, frm_w, to_w)[0]) <= 6
    got = holonomy_stack(a, kind, frm_w, to_w)
    assert same_bits(got, [single(a, frm[i], to[i]).matrix for i in pick])
    assert same_bits(holonomy_stack(a, kind, frm_w[:0], to_w[:0]), np.empty((0, 2, 2)))


@pytest.mark.parametrize("base", [3, 2 ** 20, 2 ** 40])
def test_row_codes_are_equal_exactly_for_equal_rows(base):
    # eight columns in base 2^20 or 2^40 would pass 2^63 unless renumbered
    rows = np.random.default_rng(base).integers(0, 3, (60, 8))
    rows[[40, 50]] = rows[[0, 1]]
    rows[:, 0] = base - 1
    _, expected = np.unique(rows, axis=0, return_inverse=True)
    codes = _row_codes(rows, base)
    assert (codes[:, None] == codes[None, :]).tolist() == \
        (expected.ravel()[:, None] == expected.ravel()[None, :]).tolist()
    assert _row_codes(rows[:, :0], base).tolist() == [0] * 60


@pytest.mark.parametrize("kind, scale", [("stable", 1e200), ("unstable", 1e-200)])
def test_holonomy_stack_with_repeated_rows_still_raises(q2, kind, scale):
    # a repeated row whose orbit product overflows, or whose holonomy is
    # singular, fails as it does alone
    big = LocallyConstantCocycle.from_function(
        q2, 2, lambda w: scale * np.eye(2) if w[2] else np.eye(2))
    words = np.array([[0] * 9, [1] * 9, [1] * 9, [0] * 9])
    with pytest.raises(OverflowError, match="exceeded floating point range"):
        holonomy_stack(big, kind, words, words)
    stack = np.tile(np.eye(2), (8, 1, 1))
    stack[-1] = 0.0  # at the window (1, 1, 1), not checked on direct construction
    singular = LocallyConstantCocycle(q2, 1, 2, admissible_word_array(q2, 3), stack)
    words = np.array([[0] * 5, [1] * 5, [1] * 5])
    with pytest.raises(np.linalg.LinAlgError):
        holonomy_stack(singular, kind, words, words)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(-6, 6), extra=st.integers(0, 2), n_points=st.integers(0, 3),
       **systems)
@example(n=3, extra=0, n_points=2, n_symbols=2, radius=1, dim=2, seed=0)
@example(n=-3, extra=0, n_points=2, n_symbols=3, radius=1, dim=2, seed=0)
@example(n=0, extra=0, n_points=2, n_symbols=2, radius=2, dim=1, seed=0)
def test_iterate_many_equals_iterate_and_checks_the_span(n, extra, n_points, n_symbols,
                                                        radius, dim, seed):
    mu, a, rng = random_system(n_symbols, radius, dim, seed)
    points = _random_points(mu, rng, n_points)
    lo, hi = (-radius, n - 1 + radius) if n >= 0 else (n - radius, radius - 1)
    r = max(-lo, hi, 0)  # the narrowest words that cover A^n
    got = iterate_many(a, _words(points, r + extra), n)
    assert same_bits(got, np.reshape([iterate(a, x, n) for x in points],
                                     (n_points, dim, dim)))
    if n and r:
        with pytest.raises(ValueError, match="miss coordinates"):
            iterate_many(a, _words(points, r - 1), n)


@settings(max_examples=40, deadline=None)
@given(extra=st.integers(0, 2), **systems)
def test_stack_at_reads_the_centred_window(extra, n_symbols, radius, dim, seed):
    _, a, _ = random_system(n_symbols, radius, dim, seed)
    words = admissible_word_array(a.q, 2 * (radius + extra) + 1)
    assert same_bits(a.stack_at(words), [a.table[w[extra:extra + 2 * radius + 1]]
                                         for w in map(tuple, words.tolist())])


def test_orbit_products_return_fresh_arrays(q2, mu2, rng):
    # single orbit products start from one cached identity, which never leaks
    a = mixed_two_block_cocycle(q2)
    x = sample_point(mu2, rng, 10)
    for n in (0, 1, -1, 3, -3):
        m = iterate(a, x, n)
        assert m.flags.writeable and m is not a._identity
        m[...] = 7.0
    assert same_bits(iterate(a, x, 0), np.eye(a.dimension))
    assert same_bits(a._identity, np.eye(a.dimension))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 6), **systems)
def test_kernel_inverts_its_stack_only_when_read_backwards(n, n_symbols, radius, dim,
                                                          seed):
    mu, a, rng = random_system(n_symbols, radius, dim, seed)
    points = _random_points(mu, rng, 3)
    words = _words(points, n + radius)
    a.stack_at(words)
    assert "inverse" not in vars(a) and "index" not in vars(a)
    iterate_many(a, words, n)
    iterate(a, points[0], n)
    assert "inverse" not in vars(a)
    # built on the first backward product, from the same stack as before
    assert same_bits(iterate(a, points[0], -n), reference_product(a, points[0], -n))
    assert same_bits(a.inverse, np.linalg.inv(a.stack))
    assert same_bits(iterate_many(a, words, -n),
                     [reference_product(a, x, -n) for x in points])


@settings(max_examples=40, deadline=None)
@given(n_steps=st.integers(1, 6), count=st.integers(1, 5), **systems)
def test_block_costs_equal_per_block_loop(n_steps, count, n_symbols, radius, dim, seed):
    mu, a, rng = random_system(n_symbols, radius, dim, seed)
    x = sample_point(mu, rng, int(rng.integers(1, 12)))
    for direction in (+1, -1):
        got = _block_costs(a, x, n_steps, count, direction)
        assert got == reference_block_costs(a, x, n_steps, count, direction)
        assert all(type(c) is float for c in got)


@settings(max_examples=25, deadline=None)
@given(n_max=st.integers(2, 6), n_points=st.integers(1, 6), **systems)
def test_distortion_slope_equals_per_point_loop(n_max, n_points, n_symbols, radius, dim,
                                                seed):
    mu, a, rng = random_system(n_symbols, radius, dim, seed)
    points = [sample_point(mu, rng, int(rng.integers(1, 14))) for _ in range(n_points)]
    slope, means = distortion_growth_slope(a, points, n_max)
    ref_slope, ref_means = reference_slope(a, points, n_max)
    assert slope == ref_slope
    assert same_bits(means, ref_means)


def test_fixture_cocycles_equal_scalar_loops(q2, golden, mu2, mu_golden, rng):
    # the cocycles the acceptance suite and the benchmark run, at their own sizes
    fix = u0_coboundary_fixture(seed=3)
    cases = [(mixed_two_block_cocycle(q2), mu2), (window2_cocycle(golden), mu_golden),
             (unipotent_example(q2).b, mu2), (fix.result, mu2)]
    for a, mu in cases:
        assert finite_scale_exponent(a, mu, 6) == reference_finite_scale(a, mu, 6)
        for period in range(1, 6):
            for p in enumerate_periodic(a.q, period):
                for n_steps, direction in itertools.product((1, 2, 4), (+1, -1)):
                    assert _block_costs(a, p.as_point(), n_steps, period, direction) == \
                        reference_block_costs(a, p.as_point(), n_steps, period, direction)
        x = sample_point(mu, rng, 30)
        for n in range(-20, 21):
            assert same_bits(iterate(a, x, n), reference_product(a, x, n))
    points = [sample_point(mu2, rng, 90) for _ in range(60)]
    slope, means = distortion_growth_slope(fix.result, points, 40)
    ref_slope, ref_means = reference_slope(fix.result, points, 40)
    assert slope == ref_slope
    assert same_bits(means, ref_means)
