import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclib.cocycle import LocallyConstantCocycle
from cocyclib.fixtures import unipotent_example
from cocyclib.regularity import periodic_exponents
from cocyclib.sft import fixed_point
from cocyclib.zimmer import (
    ZimmerDescriptor,
    membership,
    normalize_exponent,
    quotient_action,
    random_element,
)

DESC11 = ZimmerDescriptor((1, 1), 0.0)


def test_membership_examples():
    assert membership(np.eye(2), DESC11).ok
    assert membership(np.eye(3), ZimmerDescriptor((2, 1), 0.0)).ok
    # unipotent matrices are members
    assert membership(np.array([[1.0, 5.0], [0.0, 1.0]]), DESC11).ok
    # non-isometric diagonal blocks are not
    res = membership(np.diag([2.0, 0.5]), DESC11)
    assert not res.ok
    assert res.diagonal_residuals[0] == pytest.approx(3.0)


def test_membership_nonzero_exponent():
    desc = ZimmerDescriptor((1, 1), math.log(2.0))
    assert membership(np.diag([2.0, 2.0]), desc).ok
    assert not membership(np.eye(2), desc).ok


def test_membership_dimension_mismatch():
    with pytest.raises(ValueError, match="shape"):
        membership(np.eye(3), DESC11)


def test_random_element_contract(rng):
    desc = ZimmerDescriptor((2, 1, 2), 0.3)
    for _ in range(20):
        m = random_element(desc, rng, spread=2.0)
        assert membership(m, desc, tol=1e-10).ok
        assert abs(np.linalg.det(m)) == pytest.approx(
            math.exp(0.3 * desc.dim), rel=1e-10)
    # spread 0, exponent 0, one block: plain orthogonal matrix
    o = random_element(ZimmerDescriptor((3,), 0.0), rng, spread=0.0)
    np.testing.assert_allclose(o.T @ o, np.eye(3), atol=1e-12)


def test_quotient_action_examples(rng):
    unip = np.array([[1.0, 5.0], [0.0, 1.0]])
    assert quotient_action(unip, DESC11, 0) == pytest.approx(np.ones((1, 1)))
    assert quotient_action(unip, DESC11, 1) == pytest.approx(np.ones((1, 1)))
    with pytest.raises(ValueError, match="member"):
        quotient_action(np.diag([2.0, 0.5]), DESC11, 0)
    desc = ZimmerDescriptor((2, 2), 0.0)
    m = random_element(desc, rng, 1.0)
    q0 = quotient_action(m, desc, 0)
    np.testing.assert_allclose(q0.T @ q0, np.eye(2), atol=1e-10)


def test_quotient_action_is_multiplicative(rng):
    desc = ZimmerDescriptor((2, 1), 0.0)
    for _ in range(30):
        m = random_element(desc, rng, 1.0)
        n = random_element(desc, rng, 1.0)
        for i in range(2):
            lhs = quotient_action(m @ n, desc, i, tol=1e-7)
            rhs = quotient_action(m, desc, i) @ quotient_action(n, desc, i)
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_normalize_exponent(q2, rng):
    lam = 0.4
    desc = ZimmerDescriptor((1, 2), lam)
    a = LocallyConstantCocycle.from_function(
        q2, 0, lambda w: random_element(desc, rng, 0.5))
    normalized = normalize_exponent(a, lam)
    desc0 = ZimmerDescriptor((1, 2), 0.0)
    assert all(membership(m, desc0, 1e-9).ok
               for m in normalized.table.values())
    # exponents shift by lambda
    p = fixed_point(q2, 0)
    before = periodic_exponents(a, p)
    after = periodic_exponents(normalized, p)
    assert after.lambda_plus == pytest.approx(before.lambda_plus - lam,
                                              abs=1e-10)
    assert after.lambda_minus == pytest.approx(before.lambda_minus - lam,
                                               abs=1e-10)
    unchanged = normalize_exponent(a, 0.0)
    for w, m in a.table.items():
        np.testing.assert_array_equal(unchanged.table[w], m)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1))
def test_closure_under_products_and_inverses(seed):
    rng = np.random.default_rng(seed)
    desc = ZimmerDescriptor((1, 2), 0.0)
    for _ in range(40):
        m = random_element(desc, rng, 1.0)
        n = random_element(desc, rng, 1.0)
        scale = max(1.0, float(np.linalg.norm(m, 2) * np.linalg.norm(n, 2)))
        assert membership(m @ n, desc, 1e-8 * scale).ok
        kappa = float(np.linalg.cond(m))
        assert membership(np.linalg.inv(m), desc, 1e-8 * kappa ** 2).ok


def test_worked_unipotent_fixture_membership():
    ex = unipotent_example()
    for w, m in ex.b.table.items():
        assert membership(m, DESC11, 1e-12).ok
        expected = np.array([[1.0, 1.0 - w[2] + w[1]], [0.0, 1.0]])
        np.testing.assert_array_equal(m, expected)
