import math

import numpy as np
import pytest

from cocyclib.measure import (
    MarkovMeasure,
    cylinder_measure,
    golden_mean_markov,
    sample_point,
    sample_points,
    sample_stable_partner,
    sample_unstable_partner,
    sample_word,
    stationary,
    uniform_bernoulli,
)
from cocyclib.sft import (
    _check_cores,
    _check_futures,
    _check_pasts,
    admissible_words,
    close_word,
    full_shift,
    golden_mean_shift,
    splice_future,
    splice_past,
    validate_point,
)


def test_stationary_symmetric_cases():
    pi = stationary(np.array([[0.5, 0.5], [0.5, 0.5]]))
    np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-13)
    pi = stationary(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-13)


def test_stationary_golden_mean():
    # oracle: solve the 2x2 system by hand: pi0 = pi0/2 + pi1, pi0 + pi1 = 1
    pi = stationary(np.array([[0.5, 0.5], [1.0, 0.0]]))
    np.testing.assert_allclose(pi, [2 / 3, 1 / 3], atol=1e-13)


def test_stationary_rejects_bad_input():
    with pytest.raises(ValueError, match="sum"):
        stationary(np.array([[0.7, 0.2], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="reducible"):
        stationary(np.array([[1.0, 0.0], [0.5, 0.5]]))


def test_cylinder_examples(mu2, mu_golden):
    assert cylinder_measure(mu2, 0, "01") == pytest.approx(0.25)
    assert cylinder_measure(mu2, -3, "01") == pytest.approx(0.25)  # shift invariance
    for i in range(2):
        assert cylinder_measure(mu_golden, 0, (i,)) == pytest.approx(
            mu_golden.stationary_distribution[i])
    assert cylinder_measure(mu_golden, 0, "11") == 0.0


@pytest.mark.parametrize("word, symbol", [([-1, 0], -1), ([2], 2), ("02", 2),
                                          ((0, 1, 5), 5)])
def test_cylinder_rejects_symbols_out_of_range(mu_golden, word, symbol):
    # -1 must not be read as the last symbol, nor 2 fail by IndexError
    with pytest.raises(ValueError, match=rf"symbol {symbol} out of range \[0, 2\)"):
        cylinder_measure(mu_golden, 0, word)


def test_kolmogorov_consistency(mu_golden):
    q = mu_golden.support
    for length in range(1, 6):
        for w in admissible_words(q, length):
            total = sum(cylinder_measure(mu_golden, 0, w + (s,))
                        for s in range(q.size))
            assert total == pytest.approx(cylinder_measure(mu_golden, 0, w),
                                          abs=1e-14)


def test_product_structure_exact(mu_golden):
    # mu(u.w) * pi_i = mu(u) * mu(w) for past words ending at i and future
    # words starting at i; checked exactly for all joint words of length <= 7
    # (the density on [0; i] is the constant 1/pi_i)
    q = mu_golden.support
    pi = mu_golden.stationary_distribution
    for lu in range(1, 5):
        for lw in range(1, 5):
            for u in admissible_words(q, lu):
                for w in admissible_words(q, lw):
                    if u[-1] != w[0]:
                        continue
                    joint = cylinder_measure(mu_golden, 0, u + w[1:])
                    left = cylinder_measure(mu_golden, 0, u)
                    right = cylinder_measure(mu_golden, 0, w)
                    assert joint * pi[u[-1]] == pytest.approx(left * right,
                                                              abs=1e-14)


def test_sample_point_multinomial(mu_golden):
    rng = np.random.default_rng(42)
    counts = np.zeros(2)
    n = 10_000
    for _ in range(n):
        x = sample_point(mu_golden, rng, 1)
        counts[x[0]] += 1
    pi = mu_golden.stationary_distribution
    for i in range(2):
        sigma = np.sqrt(n * pi[i] * (1 - pi[i]))
        assert abs(counts[i] - n * pi[i]) <= 3 * sigma


def test_sample_point_deterministic_chain():
    det = MarkovMeasure.from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    rng = np.random.default_rng(3)
    x = sample_point(det, rng, 10)
    vals = [x[n] for n in range(-5, 5)]
    assert vals in ([0, 1] * 5, [1, 0] * 5)


def test_sample_point_fixed_seed_reproducible(mu2):
    a = sample_point(mu2, np.random.default_rng(7), 9)
    b = sample_point(mu2, np.random.default_rng(7), 9)
    assert a == b


def test_sample_point_is_valid_point(mu_golden, rng):
    for _ in range(40):
        x = sample_point(mu_golden, rng, 8)
        validate_point(x, mu_golden.support)


def test_partners_share_leaves(mu_golden, rng):
    for _ in range(25):
        x = sample_point(mu_golden, rng, 8)
        s = sample_stable_partner(mu_golden, x, rng)
        validate_point(s, mu_golden.support)
        assert all(s[n] == x[n] for n in range(0, 40))
        u = sample_unstable_partner(mu_golden, x, rng)
        validate_point(u, mu_golden.support)
        assert all(u[n] == x[n] for n in range(-40, 1))


def test_partner_keep_depth(mu2, rng):
    x = sample_point(mu2, rng, 8)
    s = sample_stable_partner(mu2, x, rng, keep_depth=3)
    assert all(s[n] == x[n] for n in range(-3, 1))


def test_supplied_stationary_vector_validated():
    p = np.array([[0.5, 0.5], [1.0, 0.0]])
    mu = MarkovMeasure.from_matrix(p, pi=[2 / 3, 1 / 3])
    np.testing.assert_allclose(mu.stationary_distribution, [2 / 3, 1 / 3])
    with pytest.raises(ValueError, match="stationary"):
        MarkovMeasure.from_matrix(p, pi=[0.5, 0.5])
    # nan > tol is false, so pi P = pi alone would let this through
    with pytest.raises(ValueError, match="probability vector"):
        MarkovMeasure.from_matrix(p, pi=[math.nan, math.nan])


# ---------------------------------------------------------------------------
# hand-built measures are checked like from_matrix ones


def _golden_parts():
    mu = golden_mean_markov()
    return mu.transition_probabilities, mu.stationary_distribution, mu.support


@pytest.mark.parametrize("p, pi, support, match", [
    (np.ones((2, 3)) / 3, [0.5, 0.5], full_shift(2), "square"),
    (np.array([[1.5, -0.5], [0.5, 0.5]]), [0.5, 0.5], full_shift(2), "nonnegative"),
    (np.array([[0.7, 0.2], [0.5, 0.5]]), [0.5, 0.5], full_shift(2), "sum to 1"),
    (np.full((2, 2), 0.5), [1 / 3, 1 / 3, 1 / 3], full_shift(2), "shape"),
    (np.full((2, 2), 0.5), [0.7, 0.7], full_shift(2), "probability vector"),
    (np.full((2, 2), 0.5), [0.5, 0.5], golden_mean_shift(), "support"),
    (np.full((3, 3), 1 / 3), [1 / 3] * 3, full_shift(2), "support"),
    (_golden_parts()[0], _golden_parts()[1], full_shift(2), "support"),
    (np.full((2, 2), 0.5), [math.nan, math.nan], full_shift(2), "probability vector"),
])
def test_hand_built_measure_rejected(p, pi, support, match):
    with pytest.raises(ValueError, match=match):
        MarkovMeasure(p, np.asarray(pi), support)


def test_hand_built_measure_accepted():
    p, pi, support = _golden_parts()
    mu = MarkovMeasure(p, pi, support)
    assert sample_point(mu, np.random.default_rng(0), 5).core


# ---------------------------------------------------------------------------
# the samplers against the rng.choice loops they replaced: same words, same
# points and the same generator state after every call


def ref_sample_word(mu, rng, length):
    pi = mu.stationary_distribution
    p = mu.transition_probabilities
    out = [int(rng.choice(mu.n_symbols, p=pi))]
    for _ in range(length - 1):
        out.append(int(rng.choice(mu.n_symbols, p=p[out[-1]])))
    return tuple(out)


def ref_sample_point(mu, rng, core_length, start=None):
    w = ref_sample_word(mu, rng, core_length)
    offset = core_length // 2 if start is None else -start
    return close_word(mu.support, w, origin_offset=offset)


def ref_stable_partner(mu, x, rng, past_length=6, keep_depth=0):
    q = mu.support
    kept = x.window(-keep_depth, -1)
    last = kept[0] if kept else x[0]
    fresh = []
    for _ in range(past_length):
        preds = [s for s in range(q.size) if q.allows(s, last)]
        last = int(rng.choice(preds))
        fresh.insert(0, last)
    return splice_past(q, x, tuple(fresh) + kept)


def ref_unstable_partner(mu, x, rng, future_length=6, keep_depth=0):
    q = mu.support
    p = mu.transition_probabilities
    kept = x.window(1, keep_depth)
    last = kept[-1] if kept else x[0]
    fresh = []
    for _ in range(future_length):
        last = int(rng.choice(mu.n_symbols, p=p[last]))
        fresh.append(last)
    return splice_future(q, x, kept + tuple(fresh))


# row 0 sums to 0.9999999999999999 in floating point, so its normalised CDF
# differs from the raw cumulative sum; 1 -> 1 is a zero transition
THREE_STATE = np.array([[0.7, 0.2, 0.1], [0.25, 0.0, 0.75], [0.6, 0.4, 0.0]])

DIFFERENTIAL_MEASURES = {
    "uniform2": lambda: uniform_bernoulli(2),
    "uniform3": lambda: uniform_bernoulli(3),
    "uniform5": lambda: uniform_bernoulli(5),
    "golden": golden_mean_markov,
    "three_state_zero": lambda: MarkovMeasure.from_matrix(THREE_STATE),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_MEASURES))
def test_samplers_match_rng_choice(name):
    mu = DIFFERENTIAL_MEASURES[name]()
    for seed in range(500):
        new, ref = np.random.default_rng(seed), np.random.default_rng(seed)

        def same(got, want):
            assert got == want, (name, seed)
            assert new.bit_generator.state == ref.bit_generator.state, (name, seed)

        length = seed % 40 + 1
        same(sample_word(mu, new, length), ref_sample_word(mu, ref, length))
        core = seed % 9 + 1
        x = sample_point(mu, new, core)
        same(x, ref_sample_point(mu, ref, core))
        for keep in (0, 2):
            same(sample_stable_partner(mu, x, new, keep_depth=keep),
                 ref_stable_partner(mu, x, ref, keep_depth=keep))
            same(sample_unstable_partner(mu, x, new, keep_depth=keep),
                 ref_unstable_partner(mu, x, ref, keep_depth=keep))
        # a batch is the per-call loop: count 1 or 7, core lengths 1-9,
        # default and explicit starts
        count, start = (1, 7)[seed % 2], (None, seed % 7 - 4)[seed // 2 % 2]
        same(sample_points(mu, new, count, core, start),
             [ref_sample_point(mu, ref, core, start) for _ in range(count)])
    for core in range(1, 10):
        new, ref = np.random.default_rng(core), np.random.default_rng(core)
        start = None if core % 2 else -core
        assert sample_points(mu, new, 500, core, start) == \
            [ref_sample_point(mu, ref, core, start) for _ in range(500)], (name, core)
        assert new.bit_generator.state == ref.bit_generator.state, (name, core)


_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _generator_first_draw(u, before=0, hi=0x0123456789ABCDEF):
    """A PCG64 generator whose next rng.random() is exactly u (a multiple of
    2**-53 in [0, 1)): the state before a step that lands on an output word
    whose top 53 bits are u * 2**53.  With `before` > 0 that draw comes
    after `before` others, which depend on `hi`."""
    inc = 0xB0A7C1E5D2F3A4B7
    target = int(u * 2 ** 53) << 11
    rot = hi >> 58
    lo = hi ^ (((target << rot) | (target >> (64 - rot))) & (2 ** 64 - 1))
    state = (hi << 64) | lo
    for _ in range(before + 1):
        state = (state - inc) * pow(_PCG_MULT, -1, 2 ** 128) % 2 ** 128
    bg = np.random.PCG64()
    bg.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bg)


def _draws_at_cdf_boundaries(probabilities):
    """Every double a generator can return at, or one step either side of,
    an entry of the raw or the normalised cumulative sum."""
    c = np.cumsum(probabilities)
    edges = set()
    for e in [*c, *(c / c[-1])]:
        for u in (e - 2 ** -53, e, e + 2 ** -53):
            if 0 <= u < 1 and (u * 2 ** 53).is_integer():
                edges.add(float(u))
    return sorted(edges)


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_MEASURES))
def test_samplers_match_rng_choice_on_cdf_boundaries(name):
    # random seeds essentially never draw a double equal to a CDF entry, so
    # ties, where bisect_left and an unnormalised CDF would go wrong, are
    # forced here
    mu = DIFFERENTIAL_MEASURES[name]()
    assert _generator_first_draw(0.75).random() == 0.75
    assert _generator_first_draw(0.75, 3).random(4)[-1] == 0.75
    for u in _draws_at_cdf_boundaries(mu.stationary_distribution):
        new, ref = _generator_first_draw(u), _generator_first_draw(u)
        assert sample_word(mu, new, 3) == ref_sample_word(mu, ref, 3), (name, u)
        assert new.bit_generator.state == ref.bit_generator.state
        # the first core of a batch, and the second, whose first double is
        # the fourth draw
        for before in (0, 3):
            new, ref = (_generator_first_draw(u, before) for _ in range(2))
            assert sample_points(mu, new, 7, 3) == \
                [ref_sample_point(mu, ref, 3) for _ in range(7)], (name, u)
            assert new.bit_generator.state == ref.bit_generator.state
    for i, row in enumerate(mu.transition_probabilities):
        x = close_word(mu.support, (i,))
        for u in _draws_at_cdf_boundaries(row):
            new, ref = _generator_first_draw(u), _generator_first_draw(u)
            got = sample_unstable_partner(mu, x, new, future_length=3)
            assert got == ref_unstable_partner(mu, x, ref, future_length=3), (name, i, u)
            assert new.bit_generator.state == ref.bit_generator.state
            # a batch core whose first symbol is i and whose second double is u
            hi = next(h for h in range(1, 1 << 16) if ref_sample_word(
                mu, _generator_first_draw(u, 1, h << 48), 1) == (i,))
            new, ref = (_generator_first_draw(u, 1, hi << 48) for _ in range(2))
            assert sample_points(mu, new, 7, 2, start=0) == \
                [ref_sample_point(mu, ref, 2, start=0) for _ in range(7)], (name, i, u)
            assert new.bit_generator.state == ref.bit_generator.state


# ---------------------------------------------------------------------------
# the array checks of a batch raise what their single-point counterparts do;
# the chain never draws such rows, so only hand-made ones reach them


def _message(call):
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


def test_batch_checks_raise_the_single_point_messages():
    q = golden_mean_shift()  # 1 -> 1 is forbidden
    x = close_word(q, (0, 1, 0), origin_offset=1)  # x_0 = 1
    ok = np.array([[0, 1, 0], [1, 0, 0]])
    _check_cores(q, ok)
    _check_pasts(q, np.array([[0, 0], [1, 0]]), np.array([1, 1]))
    _check_futures(q, np.array([1, 0]), np.array([[0, 1], [1, 0]]))
    cases = [
        # a core with 1 -> 1 in its second row
        (lambda: _check_cores(q, np.array([[0, 1, 0], [0, 1, 1]])),
         lambda: close_word(q, (0, 1, 1))),
        # a past whose seam into x_0 = 1 is 1 -> 1
        (lambda: _check_pasts(q, np.array([[0, 0], [0, 1]]), np.array([1, 1])),
         lambda: splice_past(q, x, (0, 1))),
        # a future whose seam out of x_0 = 1 is 1 -> 1
        (lambda: _check_futures(q, np.array([1, 1]), np.array([[0, 0], [1, 0]])),
         lambda: splice_future(q, x, (1, 0))),
    ]
    for batch, single in cases:
        assert _message(batch) == _message(single)
