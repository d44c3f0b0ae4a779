import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclib.linalg import (
    ConeParams,
    Flag,
    IllConditionedSplitError,
    PROJECTIVE_METRIC_CONSTANT,
    Subspace,
    angle_decay_rate,
    calibrate_cone_constant,
    cone_growth_bound,
    cone_invariance_check,
    eigensplit,
    invariance_inequality_lhs,
    largest_principal_angle,
    oblique_projection,
    principal_angle,
    projective_lipschitz_bound,
    transversality_time,
)
from cocyclib.zimmer import haar_orthogonal


def line_angle(u, v):
    """Reference: the angle-metric distance between the lines spanned by u
    and v, the metric of :func:`projective_lipschitz_bound`."""
    c = abs(float(u @ v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(np.clip(c, 0.0, 1.0)))


def spanned_by(*vectors):
    """The subspace spanned by the given vectors."""
    return Subspace.from_spanning(np.column_stack(vectors))


def vector_subspace_angle(vec, w):
    """Reference: the angle between a nonzero vector and a nonzero subspace."""
    inside = np.linalg.norm(w.basis.T @ vec) / np.linalg.norm(vec)
    return float(np.arccos(np.clip(inside, -1.0, 1.0)))


# ---------------------------------------------------------------------------
# projections and angles


def test_oblique_projection_orthogonal_case():
    v = Subspace.standard(3, [0, 1])
    proj = oblique_projection(v, v.orthogonal_complement())
    np.testing.assert_allclose(proj, v.projector(), atol=1e-13)


def test_oblique_projection_hand_example():
    # image span(e1), kernel span(e1 + e2): solve the 2x2 equations by hand
    v = Subspace.standard(2, [0])
    w = spanned_by([1.0, 1.0])
    np.testing.assert_allclose(oblique_projection(v, w),
                               [[1.0, -1.0], [0.0, 0.0]], atol=1e-13)


def test_oblique_projection_idempotent(rng):
    for _ in range(50):
        d = int(rng.integers(2, 6))
        r = int(rng.integers(1, d))
        v = Subspace.from_spanning(rng.normal(size=(d, r)))
        w = Subspace.from_spanning(rng.normal(size=(d, d - r)))
        try:
            proj = oblique_projection(v, w)
        except ValueError:
            continue
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-9)
        comp = oblique_projection(w, v)
        np.testing.assert_allclose(proj + comp, np.eye(d), atol=1e-9)


def test_oblique_projection_rejects_non_complement():
    v = Subspace.standard(3, [0])
    w = Subspace.standard(3, [1])
    with pytest.raises(ValueError):
        oblique_projection(v, w)


def test_principal_angle_examples():
    e1 = Subspace.standard(2, [0])
    e2 = Subspace.standard(2, [1])
    diag = spanned_by([1.0, 1.0])
    assert principal_angle(e1, e1) == pytest.approx(0.0, abs=1e-8)
    assert principal_angle(e1, e2) == pytest.approx(math.pi / 2)
    assert principal_angle(e1, diag) == pytest.approx(math.pi / 4)
    with pytest.raises(ValueError):
        principal_angle(e1, Subspace.zero(2))


def test_principal_angle_zero_iff_intersection(rng):
    v = Subspace.standard(3, [0, 1])
    w = spanned_by([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert principal_angle(v, w) == pytest.approx(0.0, abs=1e-8)


def test_flag_validation():
    f = Flag(tuple(Subspace.standard(3, range(k)) for k in (1, 2, 3)))
    assert [s.dim for s in f.subspaces] == [1, 2, 3]
    with pytest.raises(ValueError, match="full space"):
        Flag((Subspace.standard(3, [0]),))
    with pytest.raises(ValueError, match="strictly"):
        Flag((Subspace.standard(3, [0]), Subspace.standard(3, [1]),
              Subspace.standard(3, [0, 1, 2])))


# ---------------------------------------------------------------------------
# cones


def test_cone_inequality_examples():
    ok = ConeParams((1, 1), 2.0, 0.5, 0.0, 1.0)
    assert invariance_inequality_lhs(ok) == pytest.approx(0.5)
    assert cone_invariance_check([np.diag([2.0, 0.5])], ok).ok

    perturbed = ConeParams((1, 1), 2.0, 0.5, 0.1, 0.5)
    assert invariance_inequality_lhs(perturbed) == pytest.approx(0.95)
    assert invariance_inequality_lhs(perturbed) <= perturbed.mu_exp

    bad = ConeParams((1, 1), 1.01, 1.0, 0.1, 0.5)
    assert invariance_inequality_lhs(bad) == pytest.approx(1.45)
    check = cone_invariance_check([np.diag([1.01, 1.0])], bad)
    assert not check.inequality_ok
    assert not check.ok


def test_cone_invariance_witness(rng):
    # a matrix rotating mass into the contracting block violates invariance
    params = ConeParams((1, 1), 2.0, 0.5, 0.0, 1.0)
    rotate = np.array([[0.0, 1.0], [1.0, 0.0]])
    check = cone_invariance_check([rotate], params, rng)
    assert not check.ok
    assert check.witness is not None
    k = params.split[0]
    image = rotate @ check.witness
    assert np.linalg.norm(image[k:]) > np.linalg.norm(image[:k]) / params.delta


def test_cone_growth_diagonal_example():
    params = ConeParams((1, 1), 2.0, 0.5, 0.0, 1.0)
    mats = [np.diag([2.0, 0.5])] * 5
    out = cone_growth_bound(mats, np.array([1.0, 0.0]), params)
    assert out.actual == pytest.approx(32.0)
    assert out.projected == pytest.approx(32.0)
    assert min(out.actual, out.projected) >= out.bound


def test_cone_growth_unperturbed_bound_formula():
    params = ConeParams((1, 2), 2.0, 0.5, 0.0, 0.7)
    out = cone_growth_bound([np.diag([2.0, 0.5, 0.5])] * 4,
                            np.array([math.sin(0.7), math.cos(0.7), 0.0]),
                            params, constant=1.0)
    assert out.bound == pytest.approx(2.0 ** 4 * 0.7)


def test_cone_growth_aperture_precondition():
    params = ConeParams((1, 1), 2.0, 0.5, 0.0, 0.8)
    with pytest.raises(ValueError, match="aperture"):
        cone_growth_bound([np.eye(2)], np.array([0.01, math.sqrt(1 - 1e-4)]),
                          params)


def _perturbed_model(params, rng):
    k, dk = params.split
    model = np.zeros((params.dim, params.dim))
    model[:k, :k] = params.mu_exp * haar_orthogonal(rng, k)
    model[k:, k:] = params.lambda_con * haar_orthogonal(rng, dk)
    noise = np.zeros_like(model)
    for rows, cols in ((slice(0, k),) * 2, (slice(0, k), slice(k, None)),
                       (slice(k, None), slice(0, k)), (slice(k, None),) * 2):
        block = rng.normal(size=model[rows, cols].shape)
        noise[rows, cols] = block / max(np.linalg.norm(block, 2), 1e-12) \
            * params.epsilon * rng.random()
    return model + noise


def test_cone_growth_monte_carlo(rng):
    # randomized eps-perturbations of the hyperbolic model: no violations
    params = ConeParams((1, 2), 2.0, 0.5, 0.1, 0.5)
    constant = 0.9 * calibrate_cone_constant(params, 20)
    for _ in range(300):
        j = int(rng.integers(1, 21))
        mats = [_perturbed_model(params, rng) for _ in range(j)]
        angle = params.delta + rng.random() * (math.pi / 2 - params.delta)
        u = rng.normal(size=1)
        w = rng.normal(size=2)
        v = np.concatenate([math.sin(angle) * u / np.abs(u),
                            math.cos(angle) * w / np.linalg.norm(w)])
        out = cone_growth_bound(mats, v, params, constant=constant)
        assert min(out.actual, out.projected) >= out.bound


def test_transversality_time_closed_form_eps_zero():
    params = ConeParams((1, 1), 2.0, 0.5, 0.0, 0.5)
    threshold = 0.05
    j = transversality_time(params, threshold=threshold)
    closed = math.ceil(math.log(threshold / (1 / params.delta))
                       / math.log(params.lambda_con / params.mu_exp))
    assert j == max(0, closed)


def test_transversality_time_trivial_when_inside():
    params = ConeParams((1, 1), 2.0, 0.5, 0.01, 0.5, margin_d=10.0)
    fixed = params.epsilon / (params.mu_exp - params.lambda_con
                              - 2 * params.epsilon - 1 / params.margin_d)
    wide = ConeParams((1, 1), 2.0, 0.5, 0.01, 1 / fixed, margin_d=10.0)
    assert transversality_time(wide) == 0


def test_transversality_time_iteration_vs_direct_measurement(rng):
    # cross-check: after the returned number of steps, images of boundary
    # vectors measured directly have aperture ratio below the threshold.
    params = ConeParams((1, 1), 2.0, 0.5, 0.01, 0.5, margin_d=10.0)
    j = transversality_time(params)
    assert j == 5  # frozen from iterating the ratio map by hand
    worst = 0.0
    for _ in range(200):
        mats = [_perturbed_model(params, rng) for _ in range(j)]
        vec = np.array([1.0, 1.0 / params.delta * (1 if rng.random() < .5 else -1)])
        image = vec
        for m in mats:
            image = m @ image
        worst = max(worst, abs(image[1]) / abs(image[0]))
    fixed = params.epsilon / (params.mu_exp - params.lambda_con
                              - 2 * params.epsilon - 1 / params.margin_d)
    assert worst <= 2 * fixed


def test_transversality_time_denominator_error():
    params = ConeParams((1, 1), 1.2, 1.0, 0.05, 0.5, margin_d=10.0)
    with pytest.raises(ValueError, match="nonpositive"):
        transversality_time(params)


# ---------------------------------------------------------------------------
# eigensplittings


def test_eigensplit_examples():
    stable, center, unstable = eigensplit(np.diag([2.0, 0.5]))
    assert unstable.dim == 1 and stable.dim == 1 and center.dim == 0
    np.testing.assert_allclose(np.abs(unstable.basis[:, 0]), [1.0, 0.0],
                               atol=1e-12)

    rot = np.array([[math.cos(0.7), -math.sin(0.7)],
                    [math.sin(0.7), math.cos(0.7)]])
    _, center, _ = eigensplit(rot)
    assert center.dim == 2

    _, center, _ = eigensplit(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert center.dim == 2  # unit-modulus Jordan block


def test_eigensplit_invariance(rng):
    for _ in range(20):
        m = np.diag([2.2, 1.0, 0.4]) + 0.1 * rng.normal(size=(3, 3))
        try:
            stable, center, unstable = eigensplit(m)
        except IllConditionedSplitError:
            continue
        for sub in (stable, center, unstable):
            if 0 < sub.dim < 3:
                assert largest_principal_angle(sub.map_by(m), sub) <= 1e-8


def test_eigensplit_edge_flagging():
    with pytest.raises(IllConditionedSplitError):
        eigensplit(np.diag([1.0 + 1e-6, 0.5]), tol=1e-6)


# ---------------------------------------------------------------------------
# projective bounds


def test_projective_lipschitz_examples():
    c = PROJECTIVE_METRIC_CONSTANT
    assert projective_lipschitz_bound(np.eye(3)) == pytest.approx(c)
    assert projective_lipschitz_bound(3.0 * np.eye(3)) == pytest.approx(c)
    assert projective_lipschitz_bound(np.diag([2.0, 0.5])) == pytest.approx(4 * c)


def test_projective_lipschitz_sampled_ratios(rng):
    a = np.diag([2.0, 0.5])
    bound = projective_lipschitz_bound(a)
    worst = 0.0
    for _ in range(10_000):
        u = rng.normal(size=2)
        v = rng.normal(size=2)
        den = line_angle(u, v)
        if den < 1e-8:
            continue
        worst = max(worst, line_angle(a @ u, a @ v) / den)
    assert worst <= bound
    assert worst <= 4.0 + 1e-9  # the condition number itself is the sup


def test_projection_length_lower_bound(rng):
    # fixed W; constant measured with V = W-perp, asserted for random complements
    w = spanned_by([1.0, 2.0, -1.0])
    theta0 = 0.4
    c_theta = math.sin(theta0)
    for _ in range(1000):
        v = Subspace.from_spanning(rng.normal(size=(3, 2)))
        try:
            proj = oblique_projection(v, w, cond_bound=1e6)
        except ValueError:
            continue
        q_vec = rng.normal(size=3)
        q_vec /= np.linalg.norm(q_vec)
        if vector_subspace_angle(q_vec, w) < theta0:
            continue
        assert np.linalg.norm(proj @ q_vec) >= c_theta - 1e-12


def test_angle_decay_on_block_triangular_products(rng):
    # products with per-step norm bound exp(lam) preserving the leading
    # block: transverse projections decay no faster than exp(-n lam')
    lam = 0.15
    lam_prime = angle_decay_rate(lam)
    e_top = Subspace.standard(3, [0, 1])
    proj = np.eye(3) - e_top.projector()  # orthogonal projection onto E-perp
    for _ in range(200):
        n = int(rng.integers(1, 31))
        v = rng.normal(size=3)
        prod = np.eye(3)
        for _ in range(n):
            scale = math.exp(rng.uniform(-lam, lam))
            m = np.zeros((3, 3))
            m[:2, :2] = scale * haar_orthogonal(rng, 2)
            m[2, 2] = math.exp(rng.uniform(-lam, lam))
            m[:2, 2] = 0.3 * rng.normal(size=2)
            prod = m @ prod
        lhs = np.linalg.norm(proj @ prod @ v)
        rhs = math.exp(-n * lam_prime) * np.linalg.norm(proj @ v)
        assert lhs >= rhs - 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_calibration_constant_positive(seed):
    rng = np.random.default_rng(seed)
    mu = 1.5 + rng.random()
    lam = rng.random() * 0.9
    params = ConeParams((1, 1), mu, lam, 0.05 * rng.random(), 0.3 + rng.random())
    assert calibrate_cone_constant(params) > 0
