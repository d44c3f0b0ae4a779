import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cocyclib.sft import (
    INFINITE,
    MetricParams,
    SymbolicPoint,
    TransitionMatrix,
    agreement_radius,
    bracket,
    close_word,
    connecting_word,
    distance,
    enumerate_periodic,
    fixed_point,
    full_shift,
    golden_mean_shift,
    is_admissible,
    is_cyclically_admissible,
    parse_word_key,
    periodic_point,
    point,
    same_future,
    same_past,
    same_sequence,
    shift,
    splice_future,
    splice_past,
    validate_point,
    word_key,
)


def naive_agreement_radius(x, y, horizon=200):
    """Independent scan oracle over an explicit window."""
    if x[0] != y[0]:
        return 0
    for n in range(1, horizon):
        if x[n] != y[n] or x[-n] != y[-n]:
            return n
    return INFINITE


def test_admissibility_examples(q2, golden):
    assert is_admissible("010", q2)
    assert not is_admissible("011", golden)
    assert is_admissible("", golden)


def test_admissibility_symbol_range(q2):
    with pytest.raises(ValueError):
        is_admissible((0, 2), q2)


def test_transition_matrix_validation():
    with pytest.raises(ValueError, match="row 1"):
        TransitionMatrix.from_rows([[1, 1], [0, 0]])
    with pytest.raises(ValueError, match="reducible"):
        TransitionMatrix.from_rows([[1, 1], [0, 1]])


def mixing_constant(q):
    """Reference: the least m >= 1 with Q^m entrywise positive, or None for
    an irreducible but periodic q, which has no such m (Wielandt cap m <= n^2)."""
    power = q.as_array.astype(bool)
    for m in range(1, q.size * q.size + 1):
        if power.all():
            return m
        power = (power @ q.as_array.astype(bool)) > 0
    return None


def test_mixing_constant():
    assert mixing_constant(full_shift(2)) == 1
    assert mixing_constant(golden_mean_shift()) == 2
    assert mixing_constant(TransitionMatrix.from_rows([[0, 1], [1, 0]])) is None
    # from the mixing constant on, every pair of symbols has a connecting word
    for q in (full_shift(2), golden_mean_shift(), full_shift(3)):
        for m in range(mixing_constant(q), mixing_constant(q) + 3):
            for a, b in itertools.product(range(q.size), repeat=2):
                w = connecting_word(q, a, b, m)
                assert len(w) == m and is_admissible((a,) + w + (b,), q)


def test_agreement_radius_examples(q2):
    x = fixed_point(q2, 0).as_point()
    assert agreement_radius(x, x) is INFINITE
    y = point(q2, "0", (0, 0, 0, 0, 0, 1), "0", 0)  # single 1 at coordinate 5
    assert agreement_radius(x, y) == 5
    assert naive_agreement_radius(x, y) == 5
    z = point(q2, "0", (0, 0, 1), "0", 0)  # differs first at coordinate 2
    assert agreement_radius(x, z) == 2


def test_agreement_radius_same_sequence_different_representation(q2):
    x = periodic_point(q2, "01").as_point()
    y = point(q2, "0101", (0, 1, 0, 1), "01", 0)
    assert agreement_radius(x, y) is INFINITE
    assert same_sequence(x, y)


def test_distance_examples(q2):
    x = fixed_point(q2, 0).as_point()
    assert distance(x, x) == 0.0
    y = point(q2, "0", (0, 0, 1), "0", 0)
    assert distance(x, y, MetricParams(1.0)) == pytest.approx(math.exp(-2))
    w = fixed_point(q2, 1).as_point()
    assert distance(x, w, MetricParams(2.7)) == 1.0


def test_bracket_examples(q2):
    x = periodic_point(q2, "001").as_point()
    assert same_sequence(bracket(x, x), x)
    y = shift(periodic_point(q2, "011").as_point(), 1)  # y_0 = 1
    with pytest.raises(ValueError, match="zero coordinates differ"):
        bracket(x, y)


def test_bracket_coordinate_oracle(q2, mu2, rng):
    from cocyclib.measure import sample_point

    for _ in range(25):
        x = sample_point(mu2, rng, 9)
        y = sample_point(mu2, rng, 9)
        if x[0] != y[0]:
            continue
        z = bracket(x, y)
        assert all(z[n] == x[n] for n in range(-40, 1))
        assert all(z[n] == y[n] for n in range(0, 41))


def test_bracket_stable_case(q2):
    # when x and y share the past, bracket(x, y) is y itself
    x = fixed_point(q2, 0).as_point()
    y = point(q2, "0", (0, 1), "0", 0)
    z = bracket(x, y)
    assert same_sequence(z, y)


def test_shift_bijection_exact(q2, mu2, rng):
    from cocyclib.measure import sample_point

    for _ in range(10):
        x = sample_point(mu2, rng, 7)
        assert shift(shift(x, 1), -1) == x  # structural equality: exact


def trace_count(q, n):
    return int(np.trace(np.linalg.matrix_power(q.as_array, n)))


@pytest.mark.parametrize("system", ["full", "golden"])
def test_enumerate_periodic_matches_trace(system):
    q = full_shift(2) if system == "full" else golden_mean_shift()
    for n in range(1, 11):
        pts = enumerate_periodic(q, n)
        assert len(pts) == trace_count(q, n)
        assert len({p.cyclic_word for p in pts}) == len(pts)


def test_enumerate_periodic_examples(q2, golden):
    assert len(enumerate_periodic(q2, 1)) == 2
    words = sorted(p.cyclic_word for p in enumerate_periodic(golden, 2))
    assert words == [(0, 0), (0, 1), (1, 0)]
    assert len(enumerate_periodic(golden, 1)) == 1


def test_connecting_word(q2, golden):
    assert connecting_word(q2, 0, 1, 1) == (0,)  # lexicographically smallest
    assert connecting_word(golden, 1, 1, 1) == (0,)
    with pytest.raises(ValueError, match="mixing constant"):
        connecting_word(golden, 1, 1, 0)
    for m in range(1, 7):
        w = connecting_word(golden, 1, 1, m)
        assert is_admissible((1,) + w + (1,), golden)


def test_connecting_word_periodic_support():
    alt = TransitionMatrix.from_rows([[0, 1], [1, 0]])
    assert connecting_word(alt, 0, 0, 1) == (1,)
    with pytest.raises(ValueError):
        connecting_word(alt, 0, 0, 2)  # parity obstruction


def test_close_and_splice(golden, rng):
    x = close_word(golden, (1, 0, 0, 1, 0), origin_offset=2)
    validate_point(x, golden)
    assert [x[n] for n in range(-2, 3)] == [1, 0, 0, 1, 0]
    y = splice_past(golden, x, (0, 1, 0))
    validate_point(y, golden)
    assert all(y[n] == x[n] for n in range(0, 30))
    assert [y[n] for n in range(-3, 0)] == [0, 1, 0]
    z = splice_future(golden, x, (0, 0, 1))
    validate_point(z, golden)
    assert all(z[n] == x[n] for n in range(-30, 1))
    assert [z[n] for n in range(1, 4)] == [0, 0, 1]


words2 = st.lists(st.integers(0, 1), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(left=words2, core=st.lists(st.integers(0, 1), max_size=6), right=words2,
       offset=st.integers(-4, 4))
def test_ultrametric_on_sampled_triples(left, core, right, offset):
    # build three points on the full shift from the same raw data by shifting
    q = full_shift(2)
    x = SymbolicPoint(tuple(left), tuple(core), tuple(right), 0)
    y = SymbolicPoint(tuple(left), tuple(core), tuple(right), offset)
    z = SymbolicPoint(tuple(right), tuple(core), tuple(left), 1)
    metric = MetricParams(0.8)
    dxz = distance(x, z, metric)
    assert dxz <= max(distance(x, y, metric), distance(y, z, metric)) + 1e-15


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bracket_matches_definition_hypothesis(data):
    q = golden_mean_shift()
    pts = enumerate_periodic(q, 4)
    x = data.draw(st.sampled_from(pts)).as_point()
    y = data.draw(st.sampled_from(pts)).as_point()
    sx = data.draw(st.integers(-3, 3))
    sy = data.draw(st.integers(-3, 3))
    x, y = shift(x, sx), shift(y, sy)
    if x[0] != y[0]:
        with pytest.raises(ValueError):
            bracket(x, y)
        return
    z = bracket(x, y)
    assert all(z[n] == x[n] for n in range(-20, 1))
    assert all(z[n] == y[n] for n in range(0, 21))


def test_enumerate_periodic_budget(q2):
    from cocyclib.sft import BudgetExceededError

    with pytest.raises(BudgetExceededError, match="budget"):
        enumerate_periodic(q2, 8, budget=100)


# ---------------------------------------------------------------------------
# point operations against brute-force scans of +-60 coordinates

SCAN = 60
symbols3 = st.integers(0, 2)
periods3 = st.lists(symbols3, min_size=1, max_size=5).map(tuple)
cores3 = st.lists(symbols3, max_size=8).map(tuple)
offsets = st.integers(-8, 8)
# periods of length <= 5, cores of length <= 8 and offsets in -8..8 put every
# comparison horizon below SCAN, so a scan of +-SCAN decides equality


@st.composite
def point_pairs(draw):
    """A random point on the full 3-shift and a second one that reuses some
    of its parts, so that equal pasts, futures and whole sequences occur."""
    x = SymbolicPoint(draw(periods3), draw(cores3), draw(periods3), draw(offsets))
    core = list(x.core)
    if core and draw(st.booleans()):
        core[draw(st.integers(0, len(core) - 1))] = draw(symbols3)
    pick = lambda own, fresh: own if draw(st.booleans()) else draw(fresh)
    y = SymbolicPoint(pick(x.left_period, periods3), pick(tuple(core), cores3),
                      pick(x.right_period, periods3), pick(x.origin_offset, offsets))
    return x, y


@settings(max_examples=300, deadline=None)
@given(pair=point_pairs(), lo=st.integers(-30, 30),
       width=st.one_of(st.integers(-3, 3), st.integers(0, 60)))
@example(pair=(SymbolicPoint((1, 2), (0,), (2, 0, 1), 0), None), lo=-9, width=20)
@example(pair=(SymbolicPoint((1, 2, 0), (), (2,), 3), None), lo=-20, width=40)
@example(pair=(SymbolicPoint((1, 2), (0, 1), (2, 0, 1), 1), None), lo=4, width=0)
@example(pair=(SymbolicPoint((1, 2), (0, 1), (2, 0, 1), 1), None), lo=-7, width=0)
@example(pair=(SymbolicPoint((0, 1, 2, 0, 1), (2,), (1, 0, 2, 2, 0), 0), None),
         lo=-12, width=3)
@example(pair=(SymbolicPoint((0, 1, 2, 0, 1), (2,), (1, 0, 2, 2, 0), 0), None),
         lo=5, width=2)
def test_window_reads_each_coordinate(pair, lo, width):
    # width = hi - lo + 1: negative and zero widths are empty windows
    # (hi == lo - 1 included), short ones sit inside one period of a tail,
    # long ones straddle both tails and the core
    x, _ = pair
    hi = lo + width - 1
    assert x.window(lo, hi) == tuple(x[n] for n in range(lo, hi + 1))


@settings(max_examples=200, deadline=None)
@given(pair=point_pairs())
def test_agreement_predicates_match_scans(pair):
    x, y = pair
    assert same_future(x, y) == all(x[n] == y[n] for n in range(0, SCAN + 1))
    assert same_past(x, y) == all(x[-n] == y[-n] for n in range(0, SCAN + 1))
    assert agreement_radius(x, y) == naive_agreement_radius(x, y, SCAN + 1)


@settings(max_examples=200, deadline=None)
@given(pair=point_pairs(), past=st.lists(symbols3, min_size=1, max_size=6),
       future=st.lists(symbols3, min_size=1, max_size=6))
def test_bracket_and_splices_keep_their_coordinates(pair, past, future):
    q = full_shift(3)
    x, y = pair
    if x[0] == y[0]:
        z = bracket(x, y)
        assert all(z[n] == x[n] for n in range(-SCAN, 1))
        assert all(z[n] == y[n] for n in range(0, SCAN + 1))
    else:
        with pytest.raises(ValueError, match="zero coordinates differ"):
            bracket(x, y)
    z = splice_past(q, x, past)
    validate_point(z, q)
    assert all(z[n] == x[n] for n in range(0, SCAN + 1))
    assert [z[n] for n in range(-len(past), 0)] == past
    z = splice_future(q, x, future)
    validate_point(z, q)
    assert all(z[n] == x[n] for n in range(-SCAN, 1))
    assert [z[n] for n in range(1, len(future) + 1)] == future


# ---------------------------------------------------------------------------
# close_word on random irreducible SFTs against brute force


@st.composite
def sfts_with_words(draw):
    """A random irreducible SFT on at most 3 symbols and an admissible word."""
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    try:
        q = TransitionMatrix.from_rows(rows)
    except ValueError:
        assume(False)
    word = [draw(st.integers(0, n - 1))]
    for _ in range(draw(st.integers(0, 7))):
        word.append(draw(st.sampled_from([s for s in range(n) if q.allows(word[-1], s)])))
    return q, tuple(word)


def shortest_cycle_length(q, symbol):
    """Least m such that some cyclically admissible word of length m starts
    with `symbol`, by enumerating every word of each length."""
    for m in range(1, q.size + 1):
        for rest in itertools.product(range(q.size), repeat=m - 1):
            if is_cyclically_admissible((symbol,) + rest, q):
                return m
    raise AssertionError("irreducible SFT without a return cycle")


@settings(max_examples=200, deadline=None)
@given(case=sfts_with_words(), offset=st.integers(-10, 10))
def test_close_word_matches_brute_force(case, offset):
    q, w = case
    x = close_word(q, w, origin_offset=offset)
    validate_point(x, q)
    assert x.core == w
    assert tuple(x[n] for n in range(-offset, len(w) - offset)) == w
    left, right = x.left_period, x.right_period
    assert is_cyclically_admissible(left, q) and is_cyclically_admissible(right, q)
    # the left cycle starts with the first symbol and closes into it; the
    # right cycle ends with the last symbol and the core closes into it
    assert left[0] == w[0] and right[-1] == w[-1]
    assert len(left) == shortest_cycle_length(q, w[0])
    assert len(right) == shortest_cycle_length(q, w[-1])
    with pytest.raises(ValueError, match="empty"):
        close_word(q, (), origin_offset=offset)
    forbidden = [(a, b) for a in range(q.size) for b in range(q.size)
                 if not q.allows(a, b)]
    for a, b in forbidden:
        with pytest.raises(ValueError, match="not admissible"):
            close_word(q, w + (a, b) if q.allows(w[-1], a) else (a, b))


@settings(max_examples=200, deadline=None)
@given(word=st.lists(st.integers(0, 30), max_size=8).map(tuple))
@example(word=())
@example(word=(7,))
@example(word=(12,))
@example(word=(1, 2))
def test_word_key_round_trip(word):
    assert parse_word_key(word_key(word)) == word


def test_word_key_format():
    # keys of bundled configs and reports: space-separated symbols
    assert word_key((0, 1, 1)) == "0 1 1"
    assert word_key((3,)) == "3"
    assert word_key((10, 2)) == "10 2"
    # digit strings are accepted as input; "12" is the word (1, 2)
    assert parse_word_key("011") == (0, 1, 1)
    assert parse_word_key("12") == (1, 2)
    assert parse_word_key(word_key((12,))) == (12,)
    with pytest.raises(ValueError):
        parse_word_key("0a1")
