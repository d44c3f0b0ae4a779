import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclib.cocycle import (
    LocallyConstantCocycle,
    coboundary_conjugate,
    evaluate,
    inverse_cocycle,
    iterate,
    qc_distortion,
)
from cocyclib.fixtures import (
    mixed_hyperbolic_cocycle,
    mixed_two_block_cocycle,
    orthogonal_cocycle,
    rotation,
    unipotent_example,
)
from cocyclib.measure import sample_point, uniform_bernoulli
from cocyclib.sft import full_shift, point, shift


def test_table_completeness_enforced(q2):
    with pytest.raises(ValueError, match="incomplete"):
        LocallyConstantCocycle.from_table(q2, 0, {(0,): np.eye(2)})


def test_singular_value_rejected(q2):
    with pytest.raises(ValueError, match="invertible"):
        LocallyConstantCocycle.from_table(
            q2, 0, {(0,): np.eye(2), (1,): np.zeros((2, 2))})


def test_ragged_value_named_by_its_window(q2):
    # a ragged nested list fails numpy's float conversion; the error still
    # names the window
    with pytest.raises(ValueError, match=r"^matrix at window \(1,\) is not 2x2$"):
        LocallyConstantCocycle.from_table(
            q2, 0, {(0,): np.eye(2), (1,): [[1.0, 0.0], [0.0]]})


def test_evaluate_constant_and_lookup(q2):
    const = LocallyConstantCocycle.constant(q2, np.diag([3.0, 1.0]))
    x = point(q2, "0", (0, 1, 0), "1", 1)
    np.testing.assert_allclose(evaluate(const, x), np.diag([3.0, 1.0]))
    mixed = mixed_hyperbolic_cocycle(q2)
    y = point(q2, "0", (1, 1), "0", 0)
    np.testing.assert_allclose(evaluate(mixed, y), np.diag([2.0, 0.5]))


def test_evaluate_worked_unipotent_value():
    ex = unipotent_example()
    x = point(ex.q, "0", (0, 0, 1), "0", 1)  # (x_0, x_1) = (0, 1)
    np.testing.assert_array_equal(evaluate(ex.b, x), np.eye(2))


def test_iterate_basics(q2, mu2, rng):
    a = mixed_two_block_cocycle(q2)
    x = sample_point(mu2, rng, 8)
    np.testing.assert_array_equal(iterate(a, x, 0), np.eye(2))
    const = LocallyConstantCocycle.constant(q2, rotation(0.3))
    np.testing.assert_allclose(iterate(const, x, 5),
                               np.linalg.matrix_power(rotation(0.3), 5),
                               atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(-10, 10), m=st.integers(-10, 10), seed=st.integers(0, 10))
def test_cocycle_identity(n, m, seed):
    q = full_shift(2)
    a = mixed_two_block_cocycle(q)
    x = sample_point(uniform_bernoulli(2), np.random.default_rng(seed), 8)
    lhs = iterate(a, x, n + m)
    rhs = iterate(a, shift(x, n), m) @ iterate(a, x, n)
    scale = max(1.0, np.max(np.abs(lhs)))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_iterate_overflow_error(q2):
    a = LocallyConstantCocycle.constant(q2, np.diag([1e6, 1e-6]))
    x = point(q2, "0", (), "0", 0)
    with pytest.raises(OverflowError):
        iterate(a, x, 60)


def test_inverse_cocycle_examples(q2):
    ident = LocallyConstantCocycle.constant(q2, np.eye(2))
    inv = inverse_cocycle(ident)
    assert all(np.array_equal(m, np.eye(2)) for m in inv.table.values())

    const = LocallyConstantCocycle.constant(q2, np.diag([2.0, 0.5]))
    np.testing.assert_allclose(inverse_cocycle(const).table[(0,)],
                               np.diag([0.5, 2.0]))

    unip = LocallyConstantCocycle.constant(q2, [[1.0, 1.0], [0.0, 1.0]])
    np.testing.assert_allclose(inverse_cocycle(unip).table[(1,)],
                               [[1.0, -1.0], [0.0, 1.0]])


def test_inverse_cocycle_table_and_backward_product(q2, mu2, rng):
    from cocyclib.cocycle import backward_product

    a = mixed_two_block_cocycle(q2)
    b = inverse_cocycle(a)
    for w, m in a.table.items():
        np.testing.assert_allclose(b.table[w], np.linalg.inv(m), atol=1e-13)
    x = sample_point(mu2, rng, 14)
    for n in (1, 3, 6):
        np.testing.assert_allclose(iterate(a, x, -n),
                                   backward_product(b, x, n), atol=1e-12)


def test_coboundary_identity_conjugator(q2):
    a = mixed_hyperbolic_cocycle(q2)
    u = LocallyConstantCocycle.constant(q2, np.eye(2))
    b = coboundary_conjugate(a, u)
    for w, m in b.table.items():
        mid = len(w) // 2
        np.testing.assert_allclose(m, a.table[w[mid:mid + 1]], atol=1e-14)


def test_coboundary_worked_example_table():
    ex = unipotent_example()
    assert ex.b.window_radius == 1
    for w, m in ex.b.table.items():
        expected = np.array([[1.0, 1.0 - w[2] + w[1]], [0.0, 1.0]])
        np.testing.assert_array_equal(m, expected)


def test_coboundary_roundtrip(q2, mu2, rng):
    a = mixed_hyperbolic_cocycle(q2)
    u = mixed_two_block_cocycle(q2, seed=8)
    b = coboundary_conjugate(a, u)
    back = coboundary_conjugate(b, inverse_cocycle(u))
    x = sample_point(mu2, rng, 10)
    for n in (-4, 1, 5):
        np.testing.assert_allclose(iterate(back, x, n), iterate(a, x, n),
                                   atol=1e-10)


def test_qc_distortion_examples(q2):
    x = point(q2, "0", (), "0", 0)
    orth = orthogonal_cocycle(q2)
    for n in (1, 4, 9):
        assert qc_distortion(orth, x, n) == pytest.approx(1.0)

    const = LocallyConstantCocycle.constant(q2, np.diag([2.0, 0.5]))
    for n in (1, 3):
        assert qc_distortion(const, x, n) == pytest.approx(4.0 ** n)

    unip = LocallyConstantCocycle.constant(q2, [[1.0, 1.0], [0.0, 1.0]])
    assert qc_distortion(unip, x, 1) == pytest.approx((3 + math.sqrt(5)) / 2)


def test_qc_distortion_at_least_one(q2, mu2, rng):
    a = mixed_two_block_cocycle(q2)
    for _ in range(20):
        x = sample_point(mu2, rng, 8)
        assert qc_distortion(a, x, int(rng.integers(1, 8))) >= 1.0


def test_log_bound_eta(q2, mu2, rng):
    a = mixed_two_block_cocycle(q2)
    eta = a.log_bound
    assert eta >= 0.0
    for _ in range(10):
        x = sample_point(mu2, rng, 60)
        for n in (-50, -7, 7, 50):
            norm = np.linalg.norm(iterate(a, x, n), 2)
            assert math.log(norm) <= eta * abs(n) + 1e-9
