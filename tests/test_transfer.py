import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocyclib.cocycle import (
    LocallyConstantCocycle,
    coboundary_conjugate,
    evaluate,
    inverse_cocycle,
    iterate,
)
from cocyclib.fixtures import (
    mild_random_cocycle,
    peel_fixture,
    rotation,
    unipotent_example,
)
from cocyclib.holonomy import holonomy_stack, stable_holonomy, unstable_holonomy
from cocyclib.measure import golden_mean_markov, sample_point, uniform_bernoulli
from cocyclib.sft import (
    BudgetExceededError,
    MetricParams,
    admissible_words,
    bracket,
    close_word,
    enumerate_periodic,
    full_shift,
    golden_mean_shift,
)
from cocyclib.transfer import (
    CornerEvaluator,
    PeeledEvaluator,
    StageError,
    TransferEvaluator,
    _compose,
    _Transport,
    conjugacy_residual,
    default_basepoints,
    embed_corner,
    exact_conjugacy_residual,
    exact_path_gap,
    holder_estimate,
    materialize,
    minimize_table,
    superdiagonal_peel,
    verify_conjugacy,
)
from cocyclib.zimmer import ZimmerDescriptor, haar_orthogonal, membership

DESC2 = ZimmerDescriptor((1, 1), 0.0)
DESC4 = ZimmerDescriptor((1, 1, 1, 1), 0.0)


def _points(mu, rng, count, length=12):
    return [sample_point(mu, rng, length) for _ in range(count)]


def test_propagate_at_basepoints(q2, mu2, rng):
    a = mild_random_cocycle(q2, 1, seed=3)
    bps = default_basepoints(q2)
    seeds = tuple(rotation(0.3 * i + 0.1) for i in range(2))
    ev = TransferEvaluator(a, a, bps, seeds)
    for i, w in enumerate(bps):
        np.testing.assert_allclose(ev.evaluate(w), seeds[i], atol=1e-13)


def test_propagate_identity_when_cocycles_equal(q2, mu2, rng):
    # A = B with identity seeds: holonomies cancel leg by leg
    a = mild_random_cocycle(q2, 1, seed=4)
    bps = default_basepoints(q2)
    ev = TransferEvaluator(a, a, bps, (np.eye(2), np.eye(2)))
    for x in _points(mu2, rng, 20):
        np.testing.assert_allclose(ev.evaluate(x), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(ev.evaluate(x, "su"), np.eye(2),
                                   atol=1e-12)


def test_propagate_recovers_unipotent_frame(q2, mu2, rng):
    # the worked example: seeds from the frame, propagation reproduces it
    ex = unipotent_example(q2)
    bps = default_basepoints(q2)
    seeds = tuple(evaluate(ex.frame, w) for w in bps)
    ev = TransferEvaluator(ex.a, ex.b, bps, seeds)
    worst = 0.0
    for x in _points(mu2, rng, 200, length=10):
        worst = max(worst, conjugacy_residual(ex.a, ex.b, ev, x))
        np.testing.assert_allclose(ev.evaluate(x), evaluate(ex.frame, x),
                                   atol=1e-12)
    assert worst <= 1e-10


# Two-block recovery: on a 2-block descriptor the peel's single offset stage
# recovers the upper corner, transported by the full subsystem holonomies.


def corner_recovery(a, b, desc, seeds, diag_tol=1e-8):
    """The offset-1 corner transport of a 2-block pair built by hand: the
    seeds' upper corners, embedded as unipotents, moved by the holonomies
    of A and B themselves."""
    d1, d2 = desc.block_dims
    embedded = tuple(embed_corner(desc.block(np.asarray(s, float), 0, 1), d1, d2)
                     for s in seeds)
    sub = TransferEvaluator(a, b, default_basepoints(a.q), embedded)
    return CornerEvaluator(sub, d1, d2, diag_tol)


def test_two_block_recover_zero_corner(q2, mu2, rng):
    a = peel_fixture(seed=31, dims=(1, 1), conjugator_window=0).base
    ev = superdiagonal_peel(a, a, DESC2, [np.eye(2), np.eye(2)])
    for x in _points(mu2, rng, 15):
        np.testing.assert_allclose(ev.evaluate(x)[:1, 1:], np.zeros((1, 1)),
                                   atol=1e-12)


def test_two_block_recover_unipotent_phi(q2, mu2, rng):
    # 1x1 diagonal blocks with trivial holonomies: peeled from the frame's
    # seeds, the corner is phi(x) = x_0 in both transport orders
    ex = unipotent_example(q2)
    seeds = [evaluate(ex.frame, w) for w in default_basepoints(q2)]
    ev = superdiagonal_peel(ex.a, ex.b, DESC2, seeds)
    for x in _points(mu2, rng, 50, length=8):
        np.testing.assert_allclose(ev.evaluate(x)[:1, 1:], [[float(x[0])]],
                                   atol=1e-13)
        np.testing.assert_allclose(ev.evaluate(x, "su")[:1, 1:], [[float(x[0])]],
                                   atol=1e-13)


def test_two_block_recover_rejects_mismatched_diagonals(q2):
    # the diagonal blocks are signs that differ on some window, so no
    # identity-diagonal conjugacy exists and the diagonal check fails by 2
    a = peel_fixture(seed=33, dims=(1, 1), conjugator_window=0).base
    b = peel_fixture(seed=34, dims=(1, 1), conjugator_window=0).base
    with pytest.raises(StageError) as err:
        superdiagonal_peel(a, b, DESC2, [np.eye(2), np.eye(2)])
    assert err.value.stage == "diagonal"
    assert err.value.residual == 2.0


def test_two_block_recover_membership_gate(q2):
    bad = LocallyConstantCocycle.constant(q2, np.diag([2.0, 0.5]))
    with pytest.raises(ValueError, match="membership"):
        superdiagonal_peel(bad, bad, DESC2, [np.eye(2)] * 2)


def test_peel_identity_when_equal(q2, mu2, rng):
    fix = peel_fixture(seed=41, dims=(1, 1, 1, 1), conjugator_window=0)
    a = fix.base
    ev = superdiagonal_peel(a, a, DESC4, [np.eye(4), np.eye(4)])
    assert ev.stages == []  # every stage is the identity and is dropped
    for x in _points(mu2, rng, 10):
        np.testing.assert_allclose(ev.evaluate(x), np.eye(4), atol=1e-12)


@pytest.mark.parametrize("dims,desc,window", [((1, 1), DESC2, 0),
                                              ((1, 1), DESC2, 1),
                                              ((1, 1, 1, 1), DESC4, 1)])
def test_peel_roundtrip(q2, mu2, rng, dims, desc, window):
    fix = peel_fixture(seed=101 + len(dims) + window, dims=dims,
                       conjugator_window=window)
    a, u, b = fix.base, fix.conjugator, fix.result
    bps = default_basepoints(q2)
    seeds = [np.linalg.inv(evaluate(u, w)) for w in bps]
    ev = superdiagonal_peel(a, b, desc, seeds)
    pts = _points(mu2, rng, 300)
    worst = max(conjugacy_residual(a, b, ev, x) for x in pts)
    assert worst <= 1e-8
    path = max(float(np.max(np.abs(ev.evaluate(x, "us") - ev.evaluate(x, "su"))))
               for x in pts[:50])
    assert path <= 1e-9
    # recovered values stay in the block structure and have orthogonal
    # diagonal blocks
    for x in pts[:50]:
        value = ev.evaluate(x)
        assert membership(value, desc, 1e-9).ok
    report = verify_conjugacy(a, b, ev, pts, tol=1e-8)
    assert report.passed


def test_peel_two_block_reduces_to_corner_recovery(q2, mu2, rng):
    # on a 2-block pair the peel's single offset stage is exactly the
    # two-block corner recovery
    fix = peel_fixture(seed=88, dims=(1, 1), conjugator_window=1)
    a, u, b = fix.base, fix.conjugator, fix.result
    seeds = [np.linalg.inv(evaluate(u, w)) for w in default_basepoints(q2)]
    ev = superdiagonal_peel(a, b, DESC2, seeds)
    corner_ev = corner_recovery(a, b, DESC2, seeds)
    for x in _points(mu2, rng, 40):
        full = ev.evaluate(x)
        np.testing.assert_allclose(full[:1, 1:], corner_ev.evaluate(x),
                                   atol=1e-12)
        np.testing.assert_allclose(np.diag(full), np.ones(2), atol=1e-12)
        # su tables are the transport bit for bit (they are not minimized)
        assert same_bits(ev.evaluate(x, "su")[:1, 1:], corner_ev.evaluate(x, "su"))


def test_peel_matches_known_transfer_pointwise(q2, mu2, rng):
    # for these fixtures the propagated transfer coincides with u^{-1}
    fix = peel_fixture(seed=77, dims=(1, 1), conjugator_window=1)
    a, u, b = fix.base, fix.conjugator, fix.result
    seeds = [np.linalg.inv(evaluate(u, w)) for w in default_basepoints(q2)]
    ev = superdiagonal_peel(a, b, DESC2, seeds)
    for x in _points(mu2, rng, 40):
        np.testing.assert_allclose(ev.evaluate(x),
                                   np.linalg.inv(evaluate(u, x)), atol=1e-11)


def test_peel_corrupted_seed_fails_loudly(q2, mu2, rng):
    fix = peel_fixture(seed=55, dims=(1, 1), conjugator_window=1)
    a, u, b = fix.base, fix.conjugator, fix.result
    bps = default_basepoints(q2)
    seeds = [np.linalg.inv(evaluate(u, w)) for w in bps]
    seeds[0] = seeds[0] + np.array([[0.0, 0.5], [0.0, 0.0]])
    try:
        ev = superdiagonal_peel(a, b, DESC2, seeds)
        pts = _points(mu2, rng, 100)
        report = verify_conjugacy(a, b, ev, pts, tol=1e-8)
        assert not report.passed
        assert report.max_residual > 1e-3
    except StageError as exc:
        assert exc.residual > 1e-8


def test_stage_error_is_tagged(q2):
    # mangled seeds abort with a stage-tagged residual diagnostic
    fix = peel_fixture(seed=56, dims=(1, 1), conjugator_window=1)
    a, u, b = fix.base, fix.conjugator, fix.result
    bad_seeds = [np.eye(2) + 0.4 * np.triu(np.ones((2, 2)), 1)] * 2
    with pytest.raises(StageError) as err:
        superdiagonal_peel(a, b, DESC2, bad_seeds, tol=1e-10)
    assert err.value.stage == "offset-1"
    assert err.value.residual > 1e-10


def test_verify_conjugacy_reports(q2, mu2, rng):
    a = mild_random_cocycle(q2, 0, seed=8)
    ident = TransferEvaluator(a, a, default_basepoints(q2),
                              (np.eye(2), np.eye(2)))
    pts = _points(mu2, rng, 60)
    report = verify_conjugacy(a, a, ident, pts, tol=1e-12)
    assert report.passed and report.max_residual <= 1e-13
    assert report.convention == "A(x) = C(shift x) B(x) C(x)^{-1}"
    with pytest.raises(ValueError, match="nonempty"):
        verify_conjugacy(a, a, ident, [], tol=1e-12)


def test_holder_estimate_sentinel_and_positive(q2, mu2, rng):
    # constant-per-symbol evaluator: differences vanish below the cutoff
    ex = unipotent_example(q2)
    bps = default_basepoints(q2)
    ev = TransferEvaluator(ex.a, ex.b, bps,
                           tuple(evaluate(ex.frame, w) for w in bps))
    pts = _points(mu2, rng, 300, length=10)
    pairs = list(zip(pts, pts[1:]))
    alpha, _ = holder_estimate(ev, pairs)
    assert math.isinf(alpha)

    # graded evaluator built from window-k holonomies: finite positive slope
    from cocyclib.fixtures import graded_rotation_cocycle

    g = graded_rotation_cocycle(q2, window=5, decay=0.5, seed=6)
    gb = coboundary_conjugate(g, mild_random_cocycle(q2, 0, seed=12))
    seeds = tuple(np.eye(2) for _ in bps)

    def graded_eval(x):
        # transfer-like quantity with graded dependence: the holonomy of g
        from cocyclib.holonomy import stable_holonomy
        from cocyclib.sft import bracket
        w = bps[x[0]]
        return stable_holonomy(g, w, bracket(x, w)).matrix

    alpha2, c2 = holder_estimate(SimpleNamespace(evaluate=graded_eval), pairs,
                                 cutoff=1.0)
    assert 0.1 < alpha2 < 5.0 and c2 > 0


def test_holder_estimate_tau_rescaling(q2, mu2, rng):
    from cocyclib.holonomy import stable_holonomy
    from cocyclib.sft import bracket

    g = mild_random_cocycle(q2, 3, seed=13)
    bps = default_basepoints(q2)

    def holonomy_at(x):
        w = bps[x[0]]
        return stable_holonomy(g, w, bracket(x, w)).matrix

    ev = SimpleNamespace(evaluate=holonomy_at)
    pts = _points(mu2, rng, 400, length=14)
    pairs = list(zip(pts, pts[1:]))
    a1, _ = holder_estimate(ev, pairs, metric=MetricParams(1.0), cutoff=1.0)
    a2, _ = holder_estimate(ev, pairs, metric=MetricParams(2.0), cutoff=1.0)
    assert a1 == pytest.approx(2.0 * a2, rel=1e-9)


@pytest.mark.parametrize("dims", [(1, 1), (1, 1, 1), (1, 2), (2, 1)])
@pytest.mark.parametrize("window", [0, 1])
@pytest.mark.parametrize("seed", [3, 7])
def test_peeled_conjugacy_intertwines_periodic_return_maps(q2, dims, window, seed):
    # A(x) C(x) = C(shift x) B(x) iterated around a p-periodic x gives
    # A^p(x) C(x) = C(x) B^p(x).  Continuous conjugacies intertwine the
    # periodic data (Kalinin-Sadovskaya, J. Mod. Dyn. 4, 2010); this is a
    # necessary condition only, which the peeled C must meet at every
    # periodic point of period up to 6 in both transport orders.
    fix = peel_fixture(seed=seed, dims=dims, conjugator_window=window)
    a, u, b = fix.base, fix.conjugator, fix.result
    seeds = [np.linalg.inv(evaluate(u, w)) for w in default_basepoints(q2)]
    ev = superdiagonal_peel(a, b, ZimmerDescriptor(dims, 0.0), seeds)
    for period in range(1, 7):
        for p in enumerate_periodic(q2, period):
            x = p.as_point()
            ap, bp = iterate(a, x, period), iterate(b, x, period)
            for order in ("us", "su"):
                c = ev.evaluate(x, order)
                gap = np.max(np.abs(ap @ c - c @ bp))
                assert gap <= 1e-12 * np.max(np.abs(ap)) * np.max(np.abs(c))


def test_peeled_evaluate_accepts_only_the_two_orders(q2, mu2, rng):
    # a peel of A against itself keeps no stage, so the order is checked
    # before any stage could reject it
    fix = peel_fixture(seed=3, dims=(1, 1), conjugator_window=1)
    seeds = [np.linalg.inv(evaluate(fix.conjugator, w)) for w in default_basepoints(q2)]
    unchanged = superdiagonal_peel(fix.result, fix.result, DESC2, [np.eye(2)] * 2)
    peeled = superdiagonal_peel(fix.base, fix.result, DESC2, seeds)
    assert not unchanged.stages and peeled.stages
    x = sample_point(mu2, rng, 10)
    for ev in (unchanged, peeled):
        for order in ("bogus", "", "US"):
            with pytest.raises(ValueError, match="unknown transport order"):
                ev.evaluate(x, order)
    for order in ("us", "su"):
        assert same_bits(unchanged.evaluate(x, order), np.eye(2))


def test_materialize_and_minimize(q2):
    a = mild_random_cocycle(q2, 0, seed=3)
    table = materialize(q2, a.stack_at, 2, 2)
    assert table.window_radius == 2
    small = minimize_table(table)
    assert small.window_radius == 0
    for w, m in a.table.items():
        np.testing.assert_array_equal(small.table[w], m)


# Seeds for the 2-shift in dimension 2 with one bad entry, and the message
# that names it: every seed must be a finite, safely invertible 2x2 matrix.
BAD_SEEDS = {
    "nan": ([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]], "non-finite matrix at base value 1"),
    "inf": ([np.eye(2), [[np.inf, 0.0], [0.0, 1.0]]], "non-finite matrix at base value 1"),
    "zero": ([np.eye(2), np.zeros((2, 2))],
             "matrix at base value 1 is not safely invertible"),
    "condition-1e15": ([np.eye(2), np.diag([1.0, 1e-15])],
                       "matrix at base value 1 is not safely invertible"),
    "3x3": ([np.eye(2), np.eye(3)], "matrix at base value 1 is not 2x2"),
    "ragged": ([np.eye(2), [[1.0, 0.0], [0.0]]], "matrix at base value 1 is not 2x2"),
    "one-seed": ([np.eye(2)], "base value 1 is missing"),
    "three-seeds": ([np.eye(2)] * 3, "base value 2 is extra"),
}


@pytest.mark.parametrize("name", list(BAD_SEEDS))
def test_bad_seeds_fail_by_index(q2, name):
    seeds, message = BAD_SEEDS[name]
    fix = peel_fixture(seed=61, dims=(1, 1), conjugator_window=1)
    with pytest.raises(ValueError) as err:
        TransferEvaluator(fix.base, fix.result, default_basepoints(q2), tuple(seeds))
    assert str(err.value).startswith(message)
    # the whole seeds are checked before the peel multiplies or splits them
    with pytest.raises(ValueError) as err:
        superdiagonal_peel(fix.base, fix.result, DESC2, seeds)
    assert str(err.value).startswith(message)


def test_materialize_refuses_a_table_over_its_budget(q2):
    a = mild_random_cocycle(q2, 0, seed=3)
    # 2^5 windows at radius 2
    assert materialize(q2, a.stack_at, 2, 2, budget=32).window_radius == 2
    with pytest.raises(BudgetExceededError, match="budget of 31"):
        materialize(q2, a.stack_at, 2, 2, budget=31)


def test_evaluator_serialization_roundtrip(q2, mu2, rng):
    fix = peel_fixture(seed=61, dims=(1, 1), conjugator_window=1)
    a, u, b = fix.base, fix.conjugator, fix.result
    seeds = [np.linalg.inv(evaluate(u, w)) for w in default_basepoints(q2)]
    ev = superdiagonal_peel(a, b, DESC2, seeds)
    blob = ev.to_jsonable()
    assert blob["rule"] == "superdiagonal-peel"
    # rebuild the evaluator from the serialized stage tables
    rebuilt = []
    for entry in blob["stage_tables"]:
        table = {tuple(int(s) for s in key.split()): np.array(mat)
                 for key, mat in entry["table"].items()}
        rebuilt.append(LocallyConstantCocycle.from_table(q2, entry["window_radius"],
                                                         table))
    for x in _points(mu2, rng, 30):
        value = np.eye(a.dimension)
        for t in rebuilt:
            k = t.window_radius
            value = t.table[x.window(-k, k)] @ value
        np.testing.assert_allclose(value, ev.evaluate(x), atol=1e-13)

def test_peel_with_nontrivial_diagonal_blocks(q2, mu2, rng):
    # the conjugacy has non-identity orthogonal diagonal blocks, so the
    # diagonal stage genuinely recovers them before the corner offsets
    from cocyclib.fixtures import sign_diagonal_cocycle

    gen = np.random.default_rng(5)

    def u_builder(w):
        d0 = -1.0 if gen.random() < 0.5 else 1.0
        d1 = -1.0 if gen.random() < 0.5 else 1.0
        return np.array([[d0, gen.uniform(-0.7, 0.7)], [0.0, d1]])

    u = LocallyConstantCocycle.from_function(q2, 1, u_builder)
    a = sign_diagonal_cocycle(q2, 2, gen)
    b = coboundary_conjugate(a, u)
    seeds = [np.linalg.inv(evaluate(u, w)) for w in default_basepoints(q2)]
    ev = superdiagonal_peel(a, b, DESC2, seeds)
    assert "diagonal" in ev.stage_names
    pts = _points(mu2, rng, 200)
    assert max(conjugacy_residual(a, b, ev, x) for x in pts) <= 1e-12
    for x in pts[:40]:
        np.testing.assert_allclose(ev.evaluate(x),
                                   np.linalg.inv(evaluate(u, x)), atol=1e-12)


def test_peel_mixed_block_dimensions(q2, mu2, rng):
    # dims (1, 2, 1): rectangular corners and a 2x2 orthogonal middle block
    from cocyclib.fixtures import sign_diagonal_cocycle
    from cocyclib.zimmer import haar_orthogonal

    gen = np.random.default_rng(6)
    desc = ZimmerDescriptor((1, 2, 1), 0.0)

    def u_builder(w):
        m = np.eye(4)
        m[0, 0] = -1.0 if gen.random() < 0.5 else 1.0
        m[1:3, 1:3] = haar_orthogonal(gen, 2)
        m[3, 3] = -1.0 if gen.random() < 0.5 else 1.0
        m[0, 1:] = gen.uniform(-0.5, 0.5, 3)
        m[1:3, 3] = gen.uniform(-0.5, 0.5, 2)
        return m

    u = LocallyConstantCocycle.from_function(q2, 1, u_builder)
    a = sign_diagonal_cocycle(q2, 4, gen)
    b = coboundary_conjugate(a, u)
    seeds = [np.linalg.inv(evaluate(u, w)) for w in default_basepoints(q2)]
    ev = superdiagonal_peel(a, b, desc, seeds)
    pts = _points(mu2, rng, 150)
    assert max(conjugacy_residual(a, b, ev, x) for x in pts) <= 1e-12
    gap = max(float(np.max(np.abs(ev.evaluate(x, "us") - ev.evaluate(x, "su"))))
              for x in pts[:30])
    assert gap <= 1e-12


def test_peel_on_constrained_and_multi_symbol_shifts(rng):
    # golden mean (forbidden word) and a 3-symbol shift with a constrained
    # matrix both run the full pipeline exactly
    from cocyclib.fixtures import sign_diagonal_cocycle, unipotent_layer_conjugator
    from cocyclib.measure import MarkovMeasure, golden_mean_markov
    from cocyclib.sft import TransitionMatrix, golden_mean_shift

    cases = []
    g = golden_mean_shift()
    cases.append((g, golden_mean_markov(), (1, 2)))
    q3 = TransitionMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    mu3 = MarkovMeasure.from_matrix(
        np.array([[0.5, 0.5, 0.0], [0.0, 0.4, 0.6], [0.7, 0.0, 0.3]]))
    cases.append((q3, mu3, (1, 1)))
    for q, mu, dims in cases:
        gen = np.random.default_rng(14)
        a = sign_diagonal_cocycle(q, sum(dims), gen)
        u = unipotent_layer_conjugator(q, dims, gen, 0.5, window=1)
        b = coboundary_conjugate(a, u)
        seeds = [np.linalg.inv(evaluate(u, w)) for w in default_basepoints(q)]
        ev = superdiagonal_peel(a, b, ZimmerDescriptor(dims, 0.0), seeds)
        pts = [sample_point(mu, rng, 14) for _ in range(120)]
        assert max(conjugacy_residual(a, b, ev, x) for x in pts) <= 1e-12


def same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _rotated_fixture(seed, dims, q, window):
    """peel_fixture's pair, with B conjugated once more by window-0
    orthogonal diagonal blocks (random for d > 1, a sign for d = 1 that is
    -1 on symbol t % 2 of block t), so that the diagonal stage is kept.
    B's zeros below the blocks are written as -0.0, whose sign only an
    unchanged order of operations keeps.  Returns A, B and the conjugator's
    values at the basepoints."""
    fix = peel_fixture(seed=seed, dims=dims, q=q, conjugator_window=window)
    gen = np.random.default_rng(seed)
    o = ZimmerDescriptor(dims, 0.0).offsets()

    def blocks(w):
        m = np.zeros((o[-1], o[-1]))
        for t, d in enumerate(dims):
            m[o[t]:o[t + 1], o[t]:o[t + 1]] = (haar_orthogonal(gen, d) if d > 1
                                               else 1.0 - 2.0 * (w[0] == t % 2))
        return m

    rot = LocallyConstantCocycle.from_function(q, 0, blocks)
    b = coboundary_conjugate(fix.result, rot)
    block_of = np.repeat(np.arange(len(dims)), dims)
    below = block_of[:, None] > block_of[None, :]
    b = LocallyConstantCocycle.from_table(
        q, b.window_radius, {w: np.where(below, -0.0, m) for w, m in b.table.items()})
    return fix.base, b, [evaluate(rot, w) @ evaluate(fix.conjugator, w)
                         for w in default_basepoints(q)]


def _stage_transports(stage):
    return (list(getattr(stage, "evaluators", ()))
            + [corner.subsystem for _, corner in getattr(stage, "corners", ())])


def _words(points, r):
    return np.array([x.window(-r, r) for x in points])


def reference_transport(t, x, order):
    """Two-leg transport of a TransferEvaluator's seed to x, one point at a
    time: each leg's holonomies by stable_holonomy/unstable_holonomy through
    the bracket point, the value moved as (ha @ value) @ inv(hb)."""
    w = t.basepoints[x[0]]
    if order == "us":
        mid, kinds = bracket(x, w), (stable_holonomy, unstable_holonomy)
    else:
        mid, kinds = bracket(w, x), (unstable_holonomy, stable_holonomy)
    value = np.asarray(t.base_values[x[0]], dtype=float)
    for holonomy, frm, to in ((kinds[0], w, mid), (kinds[1], mid, x)):
        value = ((holonomy(t.cocycle_a, frm, to).matrix @ value)
                 @ np.linalg.inv(holonomy(t.cocycle_b, frm, to).matrix))
    return value


def reference_stage(stage, x, order):
    """A peel stage's value at x from reference_transport: the diagonal
    blocks of a diagonal stage, or the corners of an offset stage's
    subsystems placed above an identity diagonal."""
    desc = stage.descriptor
    o = desc.offsets()
    if hasattr(stage, "evaluators"):
        out = np.zeros((desc.dim, desc.dim))
        for t, ev in enumerate(stage.evaluators):
            out[o[t]:o[t + 1], o[t]:o[t + 1]] = reference_transport(ev, x, order)
        return out
    out = np.eye(desc.dim)
    for i, ev in stage.corners:
        j = i + stage.offset
        out[o[i]:o[i + 1], o[j]:o[j + 1]] = \
            reference_transport(ev.subsystem, x, order)[:ev.d_top, ev.d_top:]
    return out


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1),
       dims=st.sampled_from([(1, 1), (1, 1, 1), (2, 1), (1, 2)]),
       window=st.integers(0, 2), golden=st.booleans())
@example(seed=3, dims=(2, 1), window=0, golden=False)
@example(seed=3, dims=(1, 2), window=0, golden=False)
@example(seed=3, dims=(1, 1, 1), window=2, golden=True)
def test_batched_stages_equal_per_window_transport(seed, dims, window, golden):
    # exact equality with the point-by-point rule: the batched transport
    # must do its arithmetic in the same order, from the same identity start
    q, mu = ((golden_mean_shift(), golden_mean_markov()) if golden
             else (full_shift(2), uniform_bernoulli(2)))
    a, b, c = _rotated_fixture(seed, dims, q, window)
    rng = np.random.default_rng(seed)
    words = list(admissible_words(q, 5))
    points = [close_word(q, words[i], origin_offset=2)
              for i in rng.choice(len(words), 6, replace=False)]
    points += [sample_point(mu, rng, 10) for _ in range(3)]
    bps = default_basepoints(q)
    desc = ZimmerDescriptor(dims, 0.0)
    # A has window 0, so its holonomies are the identity: peel the pair in
    # both directions, so that both cocycles of a leg have nontrivial ones.
    o = desc.offsets()
    for first, second, seeds in ((a, b, [np.linalg.inv(m) for m in c]), (b, a, c)):
        ev = superdiagonal_peel(first, second, desc, seeds)
        assert ev.stage_names[0] == "diagonal"
        su = [np.eye(desc.dim) for _ in points]
        # each stage starts from the seeds with the earlier stages' values
        # at the basepoints taken off
        acc = [np.eye(desc.dim) for _ in bps]
        for stage in ev.stages:
            transports = _stage_transports(stage)
            remaining = [np.asarray(m, float) @ np.linalg.inv(n)
                         for m, n in zip(seeds, acc)]
            blocks = ([(t, t) for t in range(len(dims))] if hasattr(stage, "evaluators")
                      else [(i, i + stage.offset) for i, _ in stage.corners])
            for t, (i, j) in zip(transports, blocks):
                expected = [m[o[i]:o[i + 1], o[j]:o[j + 1]] for m in remaining]
                if i != j:
                    expected = [embed_corner(m, o[i + 1] - o[i], o[j + 1] - o[j])
                                for m in expected]
                assert same_bits(t.base_values, expected)
            acc = [reference_stage(stage, w, "us") @ m for w, m in zip(bps, acc)]
            # the stage radius of superdiagonal_peel
            r = 2 * max(max(t.cocycle_a.window_radius, t.cocycle_b.window_radius)
                        for t in transports)
            for order in ("us", "su"):
                paths = _Transport(bps, _words(points, r), order)
                expected = [reference_stage(stage, x, order) for x in points]
                assert same_bits(stage.tabulate(paths), expected)
                assert same_bits([stage.evaluate(x, order) for x in points], expected)
                if order == "su":
                    su = [m @ n for m, n in zip(expected, su)]
                bases = [bps[x[0]] for x in points]
                if order == "us":
                    mids = [bracket(x, w) for x, w in zip(points, bases)]
                    kinds = (stable_holonomy, unstable_holonomy)
                else:
                    mids = [bracket(w, x) for x, w in zip(points, bases)]
                    kinds = (unstable_holonomy, stable_holonomy)
                legs = ((kinds[0], bases, mids), (kinds[1], mids, points))
                for t in transports:
                    expected = [reference_transport(t, x, order) for x in points]
                    assert same_bits(t.tabulate(paths), expected)
                    assert same_bits([t.evaluate(x, order) for x in points], expected)
                    for cocycle in (t.cocycle_a, t.cocycle_b):
                        for leg, (holonomy, frm, to) in zip(paths.legs, legs):
                            assert same_bits(holonomy_stack(cocycle, *leg),
                                             [holonomy(cocycle, y, z).matrix
                                              for y, z in zip(frm, to)])
        assert same_bits([ev.evaluate(x, "su") for x in points], su)


def _distinct_reads(c, kind, frm, to):
    """How many distinct holonomies a leg of ``c`` takes over the rows of
    ``frm`` and ``to``: a window-k holonomy reads coordinates -k..2k-1 of
    both ends on a stable leg and -2k..k-1 on an unstable one."""
    k, r = c.window_radius, frm.shape[1] // 2
    if not k:
        return min(1, len(frm))
    lo, hi = (-k, 2 * k - 1) if kind == "stable" else (-2 * k, k - 1)
    span = slice(lo + r, hi + r + 1)
    return len(np.unique(np.hstack([frm[:, span], to[:, span]]), axis=0))


def test_peel_solves_each_distinct_holonomy_once(monkeypatch):
    fix = peel_fixture(seed=5, dims=(1, 1, 1, 1), conjugator_window=1)
    seeds = [np.linalg.inv(evaluate(fix.conjugator, w))
             for w in default_basepoints(fix.base.q)]
    legs, solved = [], []
    tabulate, solve = TransferEvaluator.tabulate, np.linalg.solve

    def recorded_tabulate(self, paths):
        legs.extend((c, *leg) for leg in paths.legs for c in (self.cocycle_a, self.cocycle_b))
        return tabulate(self, paths)

    def counted_solve(a, b):
        solved.append(len(a))
        return solve(a, b)

    monkeypatch.setattr(TransferEvaluator, "tabulate", recorded_tabulate)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    superdiagonal_peel(fix.base, fix.result, DESC4, seeds)
    monkeypatch.undo()
    distinct = sum(_distinct_reads(*leg) for leg in legs)
    rows = sum(len(leg[2]) for leg in legs)
    assert sum(solved) == distinct
    assert distinct < rows / 10


def test_corner_diagonal_check_trips_in_both_paths(q2):
    # tol = 0 demands exact transport; rounding in the 2x2 block of the
    # subsystem holonomies leaves the transported diagonal off the identity
    # on some windows, the first of them not window 0, and exactly on the
    # identity at both basepoints
    desc = ZimmerDescriptor((1, 2), 0.0)
    fix = peel_fixture(seed=3, dims=(1, 2), conjugator_window=1)
    a, u, b = fix.base, fix.conjugator, fix.result
    seeds = [np.linalg.inv(evaluate(u, w)) for w in default_basepoints(q2)]
    with pytest.raises(StageError) as peeled:
        superdiagonal_peel(a, b, desc, seeds, tol=0.0)
    assert peeled.value.stage == "corner-transport-diagonal"
    assert peeled.value.residual > 0.0

    corner = corner_recovery(a, b, desc, seeds, diag_tol=0.0)
    radius = 2 * max(a.window_radius, b.window_radius)
    first = None
    for w in admissible_words(q2, 2 * radius + 1):
        try:
            corner.evaluate(close_word(q2, w, origin_offset=radius))
        except StageError as exc:
            first = exc
            break
    assert first is not None and first.stage == peeled.value.stage
    assert first.residual == peeled.value.residual


# sha256 of the peel battery below, computed before the tables were stored
# as word arrays and stacks; any change to a stage table's windows or bits,
# a residual or a us/su value at the sampled points changes it.
PEEL_BATTERY_DIGEST = "7b68a8168474f43f6177b4b83e5bfad0ecf465dc7d69fd3d27d923e36866af11"


def test_peel_battery_digest():
    digest = hashlib.sha256()

    def add(label, values):
        digest.update(label.encode())
        digest.update(np.ascontiguousarray(values, dtype=float).tobytes())

    systems = ((full_shift(2), uniform_bernoulli(2)),
               (golden_mean_shift(), golden_mean_markov()))
    for q, mu in systems:
        for dims in ((1, 1), (1, 1, 1), (1, 2), (2, 1), (1, 1, 1, 1)):
            for window in (0, 1):
                for seed in (7, 19):
                    a, b, c = _rotated_fixture(seed, dims, q, window)
                    desc = ZimmerDescriptor(dims, 0.0)
                    ev = superdiagonal_peel(a, b, desc, [np.linalg.inv(m) for m in c])
                    digest.update(repr((q.entries, dims, window, seed,
                                        ev.stage_names)).encode())
                    for tables in (ev.stage_tables, ev.su_tables):
                        for t in tables:
                            for w in sorted(t.table):
                                add(repr((t.window_radius, w)), t.table[w])
                    add("residuals", ev.stage_residuals + [ev.final_residual])
                    rng = np.random.default_rng(seed)
                    for x in _points(mu, rng, 5):
                        add("us", ev.evaluate(x, "us"))
                        add("su", ev.evaluate(x, "su"))
    assert digest.hexdigest() == PEEL_BATTERY_DIGEST


SYSTEMS = {"2-shift": (full_shift(2), uniform_bernoulli(2)),
           "golden-mean": (golden_mean_shift(), golden_mean_markov())}
BATTERY_DIMS = ((1, 1), (1, 1, 1), (1, 2), (2, 1), (1, 1, 1, 1))


def per_stage_loop(ev, x, order):
    """A peeled value read stage by stage: each kept stage's table at x,
    left-multiplied onto the identity in construction order."""
    out = np.eye(ev.descriptor.dim)
    for table in ev.stage_tables if order == "us" else ev.su_tables:
        out = evaluate(table, x) @ out
    return out


def _window_points(q, table):
    """One point per admissible window of a table, closed around it."""
    return [close_word(q, tuple(w), origin_offset=table.window_radius)
            for w in table.words.tolist()]


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("dims", BATTERY_DIMS)
@pytest.mark.parametrize("window", [0, 1])
def test_composed_tables_equal_per_stage_loop(system, dims, window):
    q, mu = SYSTEMS[system]
    a, b, c = _rotated_fixture(7, dims, q, window)
    desc = ZimmerDescriptor(dims, 0.0)
    points = _points(mu, np.random.default_rng(7), 20)
    ev = superdiagonal_peel(a, b, desc, [np.linalg.inv(m) for m in c])
    # B is a peel of itself: every stage is the identity and none is kept
    unchanged = superdiagonal_peel(b, b, desc, [np.eye(desc.dim)] * q.size)
    assert ev.stages and not unchanged.stages
    # the peel and the composition read the stage tables by stack_at only
    for table in ev.stage_tables + ev.su_tables:
        assert "inverse" not in vars(table)
    for order, tables in (("us", ev.stage_tables), ("su", ev.su_tables)):
        composed = ev.composed[order]
        assert composed.window_radius == max(t.window_radius for t in tables)
        for x in points + _window_points(q, composed):
            value = ev.evaluate(x, order)
            assert not value.flags.writeable
            assert same_bits(value, per_stage_loop(ev, x, order))
        identity = unchanged.composed[order]
        assert identity.window_radius == 0
        assert same_bits(identity.stack, [np.eye(desc.dim)] * q.size)
        for x in points:
            assert same_bits(unchanged.evaluate(x, order), np.eye(desc.dim))


def test_composition_starts_from_the_identity(q2):
    # the matmul onto the identity turns a single stage's signed zeros into
    # +0.0, as the per-stage loop does
    stage = LocallyConstantCocycle.from_function(
        q2, 1, lambda w: np.array([[1.0 + w[0], -0.0], [-0.0, 2.0 - w[-1]]]))
    ev = PeeledEvaluator(stage, stage, DESC2, default_basepoints(q2), stage_tables=[stage],
                         composed={"us": _compose(q2, 2, [stage])})
    for x in _window_points(q2, ev.composed["us"]):
        assert same_bits(ev.evaluate(x), per_stage_loop(ev, x, "us"))


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@pytest.mark.parametrize("dims", BATTERY_DIMS)
@pytest.mark.parametrize("window", [0, 1])
@pytest.mark.parametrize("seed", [7, 19])
def test_exact_certificates_bound_the_sampled_checks(system, dims, window, seed):
    q, mu = SYSTEMS[system]
    a, b, c = _rotated_fixture(seed, dims, q, window)
    tol = 1e-8
    ev = superdiagonal_peel(a, b, ZimmerDescriptor(dims, 0.0),
                            [np.linalg.inv(m) for m in c], tol=tol)
    points = _points(mu, np.random.default_rng(seed), 30)
    c_us = ev.composed["us"]
    exact = exact_conjugacy_residual(a, b, c_us)
    assert exact <= tol
    assert all(conjugacy_residual(a, b, ev, x) <= exact for x in points)
    # the sampled residual at one point per window of the refinement that
    # the exact residual reads attains it
    refinement = coboundary_conjugate(b, c_us)
    assert exact == max(conjugacy_residual(a, b, ev, x)
                        for x in _window_points(q, refinement))
    gap = exact_path_gap(ev)
    assert gap <= 1e-9
    assert all(np.max(np.abs(ev.evaluate(x, "us") - ev.evaluate(x, "su"))) <= gap
               for x in points)


def test_exact_residual_sees_a_wrong_window(q2):
    fix = peel_fixture(seed=3, dims=(1, 1), conjugator_window=1)
    a, u, b = fix.base, fix.conjugator, fix.result
    c = inverse_cocycle(u)
    assert exact_conjugacy_residual(a, b, c) <= 1e-12
    stack = c.stack.copy()
    stack[5] += 1e-3
    wrong = LocallyConstantCocycle(q2, c.window_radius, c.dimension, c.words, stack)
    assert exact_conjugacy_residual(a, b, wrong) >= 1e-4
