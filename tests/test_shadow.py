import math

import numpy as np
import pytest

from cocyclib.cocycle import LocallyConstantCocycle, iterate
from cocyclib.fixtures import (
    center_line_cocycle,
    mixed_hyperbolic_cocycle,
    orthogonal_cocycle,
)
from cocyclib.linalg import ConeParams, Flag, Subspace, oblique_projection
from cocyclib.regularity import BlockParams
from cocyclib.sft import (
    MetricParams,
    fixed_point,
    is_cyclically_admissible,
    periodic_point,
    shift,
)
from cocyclib.shadow import (
    FlagNotInvariantError,
    ShadowSpec,
    angle_experiment,
    block_times,
    build_shadow,
    closed_form_projection_rate,
    default_connectors,
    growth_measure,
    shadow_profile,
)

CONE = ConeParams((1, 1), 2.0, 0.999, 0.05, 0.3)


def test_spec_validation(q2):
    x, y = fixed_point(q2, 0), fixed_point(q2, 1)
    with pytest.raises(ValueError, match="multiple"):
        ShadowSpec(q2, periodic_point(q2, "01"), y, 3, 1, 1)
    with pytest.raises(ValueError, match="alpha"):
        ShadowSpec(q2, x, y, 2, 1, 1, alpha=1.5)
    with pytest.raises(ValueError, match="length m"):
        ShadowSpec(q2, x, y, 2, 1, 1, connectors=((0,), (0,)))
    with pytest.raises(ValueError, match="pin"):
        ShadowSpec(q2, x, y, 2, 1, 1, connectors=((0, 0), (0, 0)))


def test_hand_layout_oracle(q2):
    # m=2, b=c=1 on the full shift: period (2b+c+2)m = 10; coordinates
    # [-2, 2] zeros, y-block [4, 6] ones, connectors at 3 and 7
    spec = ShadowSpec(q2, fixed_point(q2, 0), fixed_point(q2, 1), 2, 1, 1)
    p = build_shadow(spec)
    assert p.period == 10
    assert p.cyclic_word == (0, 0, 0, 0, 1, 1, 1, 0, 0, 0)
    assert all(p[j] == 0 for j in range(-2, 3))
    assert all(p[j] == 1 for j in range(4, 7))


def test_build_shadow_contracts(q2, golden):
    spec = ShadowSpec(q2, fixed_point(q2, 0), fixed_point(q2, 1), 4, 2, 3)
    p = build_shadow(spec)
    assert p.period == (2 * 2 + 3 + 2) * 4
    assert is_cyclically_admissible(p.cyclic_word, q2)
    # determinism: identical spec gives the identical word
    assert build_shadow(spec).cyclic_word == p.cyclic_word
    # golden-mean connectors respect forbidden words
    gspec = ShadowSpec(golden, fixed_point(golden, 0),
                       periodic_point(golden, "10"), 4, 1, 1)
    gp = build_shadow(gspec)
    assert is_cyclically_admissible(gp.cyclic_word, golden)


def test_degenerate_spec_keeps_statistics(q2):
    # x = y: the shadow point has the same orbit statistics as x
    from cocyclib.regularity import periodic_exponents

    a = mixed_hyperbolic_cocycle(q2)
    x = fixed_point(q2, 0)
    conn = ((0, 0), (0, 0))
    spec = ShadowSpec(q2, x, x, 2, 1, 1, connectors=conn)
    p = build_shadow(spec)
    assert set(p.cyclic_word) == {0}
    rep = periodic_exponents(a, p)
    base = periodic_exponents(a, x)
    assert rep.lambda_plus == pytest.approx(base.lambda_plus, abs=1e-12)


def test_growth_measure_mixed_vs_orthogonal(q2):
    x, y = fixed_point(q2, 0), fixed_point(q2, 1)
    specs = [ShadowSpec(q2, x, y, m, 2, 2) for m in (4, 8, 12, 16)]
    params = BlockParams(4, 3.0)
    mixed = growth_measure(mixed_hyperbolic_cocycle(q2), specs, params)
    assert mixed["chi_hat"] >= 0.2 * math.log(2)
    control = growth_measure(orthogonal_cocycle(q2), specs, params)
    assert abs(control["chi_hat"]) <= 0.02
    # determinant-one fixtures: every tabulated norm is >= 1
    assert all(r["log_growth"] >= -1e-12 for r in mixed["rows"])
    assert all(r["log_growth"] >= -1e-12 for r in control["rows"])


def test_shadow_profile(q2):
    spec = ShadowSpec(q2, fixed_point(q2, 0), fixed_point(q2, 1), 4, 2, 2)
    p = build_shadow(spec)
    x = fixed_point(q2, 0)
    rows = shadow_profile(p, x, 8, MetricParams(1.0))
    assert all(r["within_bound"] for r in rows)
    self_rows = shadow_profile(p, p, 6)
    assert all(r["distance"] == 0.0 for r in self_rows)


def test_profile_center_bound(q2):
    # agreement radius at the block center is forced by the layout
    spec = ShadowSpec(q2, fixed_point(q2, 0), fixed_point(q2, 1), 4, 2, 2)
    p = build_shadow(spec)
    metric = MetricParams(1.0)
    n = 2 * spec.b * spec.m
    rows = shadow_profile(shift(p.as_point(), -spec.b * spec.m),
                          fixed_point(q2, 0), n, metric)
    for r in rows:
        j = r["j"]
        assert r["distance"] <= math.exp(-metric.tau * min(j, n - j)) * (1 + 1e-9)


def test_block_times(q2):
    spec = ShadowSpec(q2, fixed_point(q2, 0), fixed_point(q2, 1), 8, 2, 2)
    j0, j1 = block_times(spec)
    assert j0 == math.ceil(1.1 * 3 * 8)
    assert j1 == math.floor(0.9 * 5 * 8)
    assert j0 < j1 < spec.period


def test_angle_experiment_identity_cocycle(q2):
    ident = LocallyConstantCocycle.constant(q2, np.eye(2))
    flag = Flag((Subspace.standard(2, [0]), Subspace.standard(2, [0, 1])))
    spec = ShadowSpec(q2, fixed_point(q2, 0), fixed_point(q2, 1), 6, 2, 2)
    rep = angle_experiment(ident, flag, spec, CONE)
    assert rep.growth == 0.0
    # all angles constant: both visit times see the same flag position
    by_time = {}
    for r in rep.angle_rows:
        by_time.setdefault(r["i"], []).append(r["angle_to_center"])
    for angles in by_time.values():
        assert max(angles) - min(angles) <= 1e-12


def test_angle_experiment_orthogonal_control(q2):
    # no hyperbolic target exists: growth stays bounded for all m
    a = orthogonal_cocycle(q2, angles=(0.0, 0.9))
    flag = Flag((Subspace.standard(2, [0, 1]),))
    x, y = fixed_point(q2, 0), fixed_point(q2, 1)
    growths = []
    for m in (4, 8, 12):
        spec = ShadowSpec(q2, x, y, m, 2, 2)
        rep = angle_experiment(a, flag, spec, CONE)
        growths.append(rep.growth)
    assert max(growths) <= 1e-9


def test_angle_experiment_mixed_fixture_growth(q2):
    # invariant line = center direction at y: transverse projection growth
    # has positive slope c ln 2 in m
    a = center_line_cocycle(q2)
    flag = Flag((Subspace.standard(2, [0]), Subspace.standard(2, [0, 1])))
    x, y = fixed_point(q2, 0), fixed_point(q2, 1)
    tops = []
    for m in (4, 8, 12):
        spec = ShadowSpec(q2, x, y, m, 2, 2)
        rep = angle_experiment(a, flag, spec, CONE, params=BlockParams(4, 3.5))
        assert all(r["meets_bound"] for r in rep.projection_rows)
        tops.append(max(r["log_projection_growth"]
                        for r in rep.projection_rows))
        assert rep.j0 < rep.j1 < rep.u_m
    slope = np.polyfit([4.0, 8.0, 12.0], tops, 1)[0]
    assert slope == pytest.approx(2 * math.log(2), rel=1e-6)


def test_angle_experiment_flag_invariance_gate(q2):
    a = mixed_hyperbolic_cocycle(q2)  # rotations break the coordinate flag
    flag = Flag((Subspace.standard(2, [0]), Subspace.standard(2, [0, 1])))
    spec = ShadowSpec(q2, fixed_point(q2, 0), fixed_point(q2, 1), 4, 2, 2)
    with pytest.raises(FlagNotInvariantError, match="not invariant"):
        angle_experiment(a, flag, spec, CONE)


def test_exponential_shadowing_bounds_on_x_block(q2):
    # along the x-block (zero exponents there) the norms stay within
    # exp(+-eps0 j) for j >= 20
    a = mixed_hyperbolic_cocycle(q2)  # rotation-valued on the x-block
    spec = ShadowSpec(q2, fixed_point(q2, 0), fixed_point(q2, 1), 12, 2, 2)
    p = build_shadow(spec)
    start = shift(p.as_point(), -spec.b * spec.m)
    eps0 = 0.05
    for j in range(20, 2 * spec.b * spec.m + 1):
        rate = math.log(np.linalg.norm(iterate(a, start, j), 2)) / j
        assert -eps0 <= rate <= eps0


def test_projection_decay_on_x_block(q2):
    # with an invariant line along the block, the transverse projection
    # decays no faster than exp(-4 eps0 j)
    a = center_line_cocycle(q2)
    spec = ShadowSpec(q2, fixed_point(q2, 0), fixed_point(q2, 1), 12, 2, 2)
    p = build_shadow(spec)
    start = shift(p.as_point(), -spec.b * spec.m)
    line = Subspace.standard(2, [0])
    proj = oblique_projection(line.orthogonal_complement(), line)
    eps0 = 0.05
    v = np.array([0.3, 1.0])
    base = np.linalg.norm(proj @ v)
    for j in range(1, 2 * spec.b * spec.m + 1):
        val = np.linalg.norm(proj @ iterate(a, start, j) @ v)
        assert val >= math.exp(-4 * eps0 * j) * base * 0.9


def test_closed_form_rate_requires_positive_rate():
    cone = ConeParams((1, 1), 1.05, 1.0, 1.21, 0.5, sigma_cone=0.5)
    with pytest.raises(ValueError, match="rate"):
        closed_form_projection_rate(cone, 1.0, 1.0, 0.1, 2, 2)


def test_default_connectors_deterministic(q2, golden):
    c1, c2 = default_connectors(golden, fixed_point(golden, 0),
                                periodic_point(golden, "10"), 4)
    assert c1 == default_connectors(golden, fixed_point(golden, 0),
                                    periodic_point(golden, "10"), 4)[0]
    assert len(c1) == 4 and len(c2) == 4
