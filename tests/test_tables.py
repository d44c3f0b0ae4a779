"""Stacked table operations against the per-window loops they replace.

A table is stored as its array of window words and the stack of their
values.  Each operation below is compared with the dict loop it replaced,
kept here as the reference.  Where the stacked code multiplies the same
matrices in the same order, the comparison is exact (signed zeros
included), not a tolerance.
"""

import math

import numpy as np
import pytest

from cocyclib.cocycle import (
    LocallyConstantCocycle,
    coboundary_conjugate,
    evaluate,
    inverse_cocycle,
    scale,
)
from cocyclib.fixtures import peel_fixture, u0_coboundary_fixture
from cocyclib.linalg import condition_number, operator_norm
from cocyclib.sft import (
    BudgetExceededError,
    TransitionMatrix,
    admissible_word_array,
    admissible_words,
    enumerate_periodic,
    full_shift,
    golden_mean_shift,
)
from cocyclib import transfer
from cocyclib.transfer import (
    _block_difference,
    _check_membership,
    _is_identity_table,
    block_cocycle,
    default_basepoints,
    materialize,
    minimize_table,
    subsystem_cocycle,
    superdiagonal_peel,
)
from cocyclib.zimmer import (
    ZimmerDescriptor,
    membership,
    membership_residuals,
    random_element,
)

SYSTEMS = {
    "2-shift": full_shift(2),
    "3-shift": full_shift(3),
    "golden": golden_mean_shift(),
    "3-sft": TransitionMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
}


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def random_table(q, radius, dim, seed):
    gen = np.random.default_rng(seed)
    return LocallyConstantCocycle.from_function(
        q, radius, lambda w: np.eye(dim) + 0.3 * gen.standard_normal((dim, dim)))


# ---------------------------------------------------------------------------
# per-window references


def reference_words(q, length):
    """The recursive enumerator: each prefix extended by every allowed
    symbol, in symbol order."""
    def extend(prefix):
        if len(prefix) == length:
            yield prefix
            return
        for s in range(q.size):
            if not prefix or q.allows(prefix[-1], s):
                yield from extend(prefix + (s,))
    return list(extend(()))


def reference_minimize(a, tol=1e-13):
    """Radius and window -> value dict of the minimized table: each subword
    keeps its first refinement, while every refinement agrees with it."""
    radius, table = a.window_radius, dict(a.table)
    while radius > 0:
        groups = {}
        for w, m in table.items():
            sub = w[1:-1]
            if sub not in groups:
                groups[sub] = m
            elif np.max(np.abs(groups[sub] - m)) > tol:
                return radius, table
        radius, table = radius - 1, groups
    return radius, table


def reference_residuals(m, desc):
    """membership's residuals, block by block through operator_norm."""
    lower = 0.0
    for i in range(desc.num_blocks):
        for j in range(i):
            lower = max(lower, operator_norm(desc.block(m, i, j)))
    b = [math.exp(-desc.exponent) * desc.block(m, i, i) for i in range(desc.num_blocks)]
    return [operator_norm(x.T @ x - np.eye(x.shape[0])) for x in b], lower


def centre(a, word):
    """The value of the table a at the centre of a window word of odd length
    >= 2k + 1."""
    mid, k = len(word) // 2, a.window_radius
    return a.table[word[mid - k:mid + k + 1]]


def reference_block_difference(a, b, desc, blocks):
    radius = max(a.window_radius, b.window_radius)
    worst = 0.0
    for w in admissible_words(a.q, 2 * radius + 1):
        for i, j in blocks:
            worst = max(worst, float(np.max(np.abs(
                desc.block(centre(a, w), i, j) - desc.block(centre(b, w), i, j)))))
    return worst


def reference_conjugate(a, u):
    k = max(a.window_radius, u.window_radius + 1)
    return LocallyConstantCocycle.from_function(
        a.q, k, lambda w: centre(u, w[2:]) @ centre(a, w) @ np.linalg.inv(centre(u, w)))


def same_table(a, radius, table):
    """a has the given radius and, window by window, the given values."""
    return (a.window_radius == radius and sorted(a.table) == sorted(table)
            and all(same_bits(a.table[w], table[w]) for w in table))


# ---------------------------------------------------------------------------
# the word array


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_word_array_is_the_recursive_order(name):
    q = SYSTEMS[name]
    for length in range(9):
        words = admissible_word_array(q, length)
        expected = reference_words(q, length)
        assert words.shape == (len(expected), length)
        assert list(map(tuple, words.tolist())) == expected
        assert list(admissible_words(q, length)) == expected
    for n in range(1, 9):
        cyclic = [w for w in reference_words(q, n) if q.allows(w[-1], w[0])]
        assert [p.cyclic_word for p in enumerate_periodic(q, n)] == cyclic
        assert len(cyclic) == np.trace(np.linalg.matrix_power(q.as_array, n))


def test_word_array_budget_refusal():
    q = full_shift(3)
    assert len(admissible_word_array(q, 4, budget=81)) == 81
    with pytest.raises(BudgetExceededError):
        admissible_word_array(q, 4, budget=80)
    with pytest.raises(BudgetExceededError):
        next(admissible_words(q, 4, budget=80))
    with pytest.raises(BudgetExceededError):
        enumerate_periodic(q, 4, budget=80)
    with pytest.raises(ValueError, match="nonnegative"):
        admissible_word_array(q, -1)


def test_table_is_read_only_and_built_from_the_stack(q2):
    a = random_table(q2, 1, 2, seed=4)
    assert a.table is a.table
    assert list(a.table) == list(map(tuple, a.words.tolist()))
    for array in (a.words, a.stack, *a.table.values()):
        assert not array.flags.writeable
    assert all(same_bits(a.table[w], m) for w, m in zip(a.table, a.stack))
    assert all(m.base is None for m in a.table.values())


# ---------------------------------------------------------------------------
# minimize_table


@pytest.mark.parametrize("name", ["2-shift", "golden", "3-sft"])
@pytest.mark.parametrize("noise", [0.0, 4e-14, 1e-12])
def test_minimize_keeps_the_first_refinement(name, noise):
    # window-1 values tabulated at radius 3: refinements of a radius-1 word
    # are equal, or within the tolerance apart, or beyond it
    q = SYSTEMS[name]
    a = random_table(q, 1, 2, seed=8)
    gen = np.random.default_rng(9)

    def func(words):
        values = a.stack_at(words)
        return values + noise * gen.uniform(-1, 1, values.shape)

    table = materialize(q, func, 3, 2)
    small = minimize_table(table)
    radius, expected = reference_minimize(table)
    assert same_table(small, radius, expected)
    assert small.window_radius == (3 if noise > 1e-13 else 1)
    first = {}
    for w, m in table.table.items():
        first.setdefault(w[2:-2], m)
    if small.window_radius == 1:
        assert all(same_bits(small.table[w], first[w]) for w in small.table)


# ---------------------------------------------------------------------------
# membership


def test_membership_residuals_are_the_per_block_norms():
    gen = np.random.default_rng(5)
    for desc in (ZimmerDescriptor((1, 2, 1, 1), 0.0), ZimmerDescriptor((2, 1), 0.3)):
        stack = np.array([random_element(desc, gen) for _ in range(32)])
        stack[::3] += 1e-6 * gen.standard_normal(stack[::3].shape)
        diag, lower = membership_residuals(stack, desc)
        for m, d, lo in zip(stack, diag, lower):
            ref_diag, ref_lower = reference_residuals(m, desc)
            assert same_bits(d, ref_diag) and same_bits(lo, ref_lower)
            result = membership(m, desc)
            assert result.diagonal_residuals == tuple(ref_diag)
            assert result.lower_residual == ref_lower


def test_membership_gate_names_the_first_failing_window(q2):
    desc = ZimmerDescriptor((1, 1), 0.0)
    good = peel_fixture(seed=3, dims=(1, 1), conjugator_window=1).result
    keys = sorted(good.table)
    for bad_windows in ([keys[13]], [keys[20], keys[7]], [keys[0], keys[-1]]):
        table = dict(good.table)
        for w in bad_windows:
            table[w] = table[w] + np.array([[0.0, 0.0], [1e-3, 0.0]])
        bad = LocallyConstantCocycle.from_table(q2, good.window_radius, table)
        first = next(w for w, m in sorted(bad.table.items())
                     if not membership(m, desc, 1e-8).ok)
        assert first == min(bad_windows)
        for pair, name in (((bad, good), "first"), ((good, bad), "second")):
            with pytest.raises(ValueError) as err:
                _check_membership(*pair, desc, 1e-8)
            assert str(err.value) == f"{name} cocycle fails membership at window {first}"
    _check_membership(good, good, desc, 1e-8)


# ---------------------------------------------------------------------------
# block difference, identity test and the condition scale of the peel


def test_block_difference_equals_the_window_loop(q2):
    desc = ZimmerDescriptor((1, 2), 0.0)
    fix = u0_coboundary_fixture(seed=6, dims=(1, 2), conjugator_window=1)
    blocks = [(0, 0), (1, 1), (0, 1)]
    for a, b in ((fix.base, fix.result), (fix.result, fix.base), (fix.result, fix.result)):
        for chosen in (blocks[:1], blocks[:2], blocks):
            assert same_bits(_block_difference(a, b, desc, chosen),
                             reference_block_difference(a, b, desc, chosen))


def test_identity_test_equals_the_window_loop(q2):
    base = LocallyConstantCocycle.constant(q2, np.eye(2))
    for offset in (0.0, 1e-12, 1.5e-12, -1e-12, np.nan):
        table = dict(base.table)
        table[(1,)] = np.eye(2) + np.array([[0.0, offset], [0.0, 0.0]])
        a = LocallyConstantCocycle(q2, 0, 2, base.words,
                                   np.array([table[(0,)], table[(1,)]]))
        expected = all(np.max(np.abs(m - np.eye(2))) <= 1e-12 for m in table.values())
        assert _is_identity_table(a) == expected


def test_peel_condition_scale_is_the_product_of_table_maxima(q2):
    # each offset stage's corner tolerance is tol times the product, over
    # the stages kept before it, of the largest condition number in the
    # stage's table
    for dims in ((1, 1, 1), (1, 1, 1, 1)):
        fix = peel_fixture(seed=5, dims=dims, conjugator_window=1)
        seeds = [np.linalg.inv(evaluate(fix.conjugator, w)) for w in default_basepoints(q2)]
        ev = superdiagonal_peel(fix.base, fix.result, ZimmerDescriptor(dims, 0.0), seeds)
        cond_scale = 1.0
        for stage, table in zip(ev.stages, ev.stage_tables):
            for _, corner in getattr(stage, "corners", ()):
                assert corner.diag_tol == 1e-8 * cond_scale
            cond_scale *= max(condition_number(m) for m in table.table.values())
        assert len(ev.stages) == len(dims) - 1 and cond_scale > 1.0


def test_su_tables_reuse_the_words_of_their_us_tables(q2, monkeypatch):
    calls = []
    real = transfer.materialize

    def recording(*args, **kwargs):
        table = real(*args, **kwargs)
        calls.append((kwargs.get("words"), table))
        return table

    monkeypatch.setattr(transfer, "materialize", recording)
    dims = (1, 1, 1)
    fix = peel_fixture(seed=5, dims=dims, conjugator_window=1)
    seeds = [np.linalg.inv(evaluate(fix.conjugator, w)) for w in default_basepoints(q2)]
    ev = superdiagonal_peel(fix.base, fix.result, ZimmerDescriptor(dims, 0.0), seeds)
    shared = [(calls[t - 1][1].words, table.words, words)
              for t, (words, table) in enumerate(calls) if words is not None]
    assert len(shared) == len(ev.su_tables) > 0
    assert len(calls) == len(dims) + len(ev.su_tables)
    assert all(us is su is words for us, su, words in shared)


# ---------------------------------------------------------------------------
# coboundary conjugation and the other stack-level constructors


@pytest.mark.parametrize("seed", [3, 5, 7])
@pytest.mark.parametrize("window", [0, 1])
def test_coboundary_conjugate_equals_the_window_loop(seed, window):
    fixtures = [peel_fixture(seed=seed, dims=(1, 2), conjugator_window=window),
                u0_coboundary_fixture(seed, dims=(2, 1), conjugator_window=window)]
    fixtures.append(peel_fixture(seed=seed, dims=(1, 1), q=golden_mean_shift(),
                                 conjugator_window=window))
    for fix in fixtures:
        for a, u in ((fix.base, fix.conjugator), (fix.result, fix.conjugator),
                     (fix.result, inverse_cocycle(fix.conjugator))):
            got, expected = coboundary_conjugate(a, u), reference_conjugate(a, u)
            assert got.window_radius == expected.window_radius
            assert same_bits(got.words, expected.words)
            assert same_bits(got.stack, expected.stack)


@pytest.mark.parametrize("a_value, u0, u1, message", [
    # u(0) A u(1)^{-1} = diag(1, 1e-15) at x_0 = 1, x_1 = 0: condition 1e15
    (np.diag([1.0, 1e-7]), np.diag([1.0, 1e-4]), np.diag([1.0, 1e4]),
     "matrix at window (0, 1, 0) is not safely invertible"),
    # there 1e10 * 1e160 * 1e155 overflows
    (1e10 * np.eye(2), 1e160 * np.eye(2), 1e-155 * np.eye(2),
     "non-finite matrix at window (0, 1, 0)"),
])
def test_coboundary_conjugate_rejects_what_the_window_loop_rejects(q2, a_value, u0, u1,
                                                                   message):
    a = LocallyConstantCocycle.constant(q2, a_value)
    u = LocallyConstantCocycle.from_function(q2, 0, lambda w: u1 if w[0] else u0)
    for build in (coboundary_conjugate, reference_conjugate):
        with pytest.raises(ValueError) as err, np.errstate(over="ignore"):
            build(a, u)
        assert str(err.value) == message


def test_stack_constructors_equal_the_window_loops(q2):
    desc = ZimmerDescriptor((1, 2, 1), 0.0)
    a = u0_coboundary_fixture(seed=4, dims=(1, 2, 1), conjugator_window=1).result
    for i in range(3):
        t = block_cocycle(a, desc, i)
        assert all(same_bits(t.table[w], desc.block(m, i, i)) for w, m in a.table.items())
        for j in range(i + 1, 3):
            s = subsystem_cocycle(a, desc, i, j)
            for w, m in a.table.items():
                top, bottom = desc.block_dims[i], desc.block_dims[j]
                expected = np.zeros((top + bottom, top + bottom))
                expected[:top, :top] = desc.block(m, i, i)
                expected[:top, top:] = desc.block(m, i, j)
                expected[top:, top:] = desc.block(m, j, j)
                assert same_bits(s.table[w], expected)
    inv, scaled = inverse_cocycle(a), scale(a, 0.7)
    for w, m in a.table.items():
        assert same_bits(inv.table[w], np.linalg.inv(m))
        assert same_bits(scaled.table[w], 0.7 * m)
    eta = 0.0
    for m in a.table.values():
        s = np.linalg.svd(m, compute_uv=False)
        eta = max(eta, math.log(s[0]), -math.log(s[-1]))
    assert a.log_bound == eta
