"""The four benchmark workloads.

Each workload is a class whose constructor is the set-up (fixtures, configs
and presampled inputs, all derived from the seed) and whose ``cycle(c)``
yields the c-th cycle of ops as ``(label, kind, fn)``.  Every cycle has the
same op mix, so a run of whole cycles measures the stated mix whatever its
length.  ``fn()`` returns ``(ok, values)``: ``ok`` is the op's check and
``values`` is what the op computed, so that a traced run can be compared
with an untraced one value by value.

Library functions are always looked up on their module at call time
(``holonomy.stable_holonomy(...)``), never bound at import, so that the
tracer's rebinding sees the benchmark's own calls too.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from cocyclib import cli, cocycle, fixtures, holonomy, measure, regularity, \
    sft, shadow, transfer, zimmer

CHAIN_TOL = 1e-12          # holonomy chain rule and intertwining
EXPONENT_TOL = 1e-9        # |lambda| on the coboundary
SLOPE_TOL = 1e-3           # distortion growth slope on the coboundary
SUBADDITIVE_TOL = 1e-12    # n a_n <= m a_m + (n - m) a_{n-m}
RESIDUAL_TOL = 1e-8        # conjugacy residual of the peeled transfer
PATH_TOL = 1e-9            # su/us gap of the peeled transfer


def _max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


class HolonomySampled:
    """Criteria 1 and 2: sampled points, exact holonomies, orbit products."""

    name = "holonomy-sampled"
    tail_pct = 95.0

    def __init__(self, root: Path, seed: int):
        q2 = sft.full_shift(2)
        golden = sft.golden_mean_shift()
        mu2 = measure.uniform_bernoulli(2)
        mu_golden = measure.golden_mean_markov()
        self.seed = seed
        self.fixtures = [
            ("orthogonal-k0", fixtures.orthogonal_cocycle(q2), mu2),
            ("mixed-two-block-k1", fixtures.mixed_two_block_cocycle(q2), mu2),
            ("unipotent-k1", fixtures.unipotent_example(q2).b, mu2),
            ("window2-golden-k2", fixtures.window2_cocycle(golden), mu_golden),
        ]

    def cycle(self, c: int):
        for j in range(8):
            label, a, mu = self.fixtures[j % 4]
            n = 20 if j < 4 else 1 + (4 * c + j) % 11
            rng = np.random.default_rng((self.seed, c, j))
            yield (f"{label}/n={n}", "op",
                   lambda a=a, mu=mu, n=n, rng=rng: self._op(a, mu, n, rng))

    @staticmethod
    def _op(a, mu, n, rng):
        x = measure.sample_point(mu, rng, int(rng.integers(10, 13)))
        y = measure.sample_stable_partner(mu, x, rng)
        z = measure.sample_stable_partner(mu, x, rng)
        u = measure.sample_unstable_partner(mu, x, rng)
        v = measure.sample_unstable_partner(mu, x, rng)
        h_xy = holonomy.stable_holonomy(a, x, y).matrix
        h_xz = holonomy.stable_holonomy(a, x, z).matrix
        h_yz = holonomy.stable_holonomy(a, y, z).matrix
        h_xu = holonomy.unstable_holonomy(a, x, u).matrix
        h_xv = holonomy.unstable_holonomy(a, x, v).matrix
        h_uv = holonomy.unstable_holonomy(a, u, v).matrix
        chain = max(_max_abs(h_yz @ h_xy - h_xz), _max_abs(h_uv @ h_xu - h_xv))
        conj = cocycle.iterate(a, y.shifted(n), -n) @ holonomy.stable_holonomy(
            a, x.shifted(n), y.shifted(n)).matrix @ cocycle.iterate(a, x, n)
        gap = _max_abs(h_xy - conj)
        ok = chain <= CHAIN_TOL and gap <= CHAIN_TOL
        return ok, (x, y, z, u, v, h_xy, h_xz, h_yz, h_xu, h_xv, h_uv, conj)


class ExactRegularity:
    """Criteria 3, 4, 6 and 8: exact cylinder sums, periodic orbits,
    distortion growth and shadow growth, all on inputs built in set-up."""

    name = "exact-regularity"
    tail_pct = 90.0
    FSE_N = (10, 12, 14)
    REFERENCE_N = 8            # a_1..a_8 are computed in set-up
    PERIODIC_PER_CYCLE = 150
    MAX_PERIOD = 10
    BLOCK_N = 4
    SLOPE_POINTS = 600          # as in acceptance criterion 3
    SLOPE_CORE = 90
    SLOPE_N_MAX = 40

    def __init__(self, root: Path, seed: int):
        rng = np.random.default_rng((seed, 2))
        q2 = sft.full_shift(2)
        golden = sft.golden_mean_shift()
        mu2 = measure.uniform_bernoulli(2)
        self.exact = [
            ("mixed-hyperbolic-k0", fixtures.mixed_hyperbolic_cocycle(q2), mu2),
            ("window2-golden-k2", fixtures.window2_cocycle(golden),
             measure.golden_mean_markov()),
        ]
        self.reference = {
            label: {m: regularity.finite_scale_exponent(a, mu, m)
                    for m in range(1, self.REFERENCE_N + 1)}
            for label, a, mu in self.exact}
        fix = fixtures.u0_coboundary_fixture(seed=int(rng.integers(2 ** 31)))
        self.coboundary = fix.result
        orbits = [p for n in range(1, self.MAX_PERIOD + 1)
                  for p in sft.enumerate_periodic(q2, n)]
        thetas = rng.uniform(0.1, 3.0, size=len(orbits))
        # Orbits of each period in seed-shuffled order; a cycle takes a fixed
        # number of each period, in proportion to how many there are (at
        # least one), so every cycle has the same mix of costs.
        self.orbits = {n: [] for n in range(1, self.MAX_PERIOD + 1)}
        for i in rng.permutation(len(orbits)):
            self.orbits[orbits[i].period].append(
                (orbits[i], regularity.BlockParams(self.BLOCK_N, float(thetas[i]))))
        self.periodic_mix = {
            n: max(1, round(self.PERIODIC_PER_CYCLE * len(group) / len(orbits)))
            for n, group in self.orbits.items()}
        self.points = [measure.sample_point(mu2, rng, self.SLOPE_CORE)
                       for _ in range(self.SLOPE_POINTS)]
        x, y = sft.fixed_point(q2, 0), sft.fixed_point(q2, 1)
        self.specs = [shadow.ShadowSpec(q2, x, y, m, 2, 2) for m in (4, 8, 12, 16)]
        self.shadow_cases = [
            ("mixed-hyperbolic", fixtures.mixed_hyperbolic_cocycle(q2),
             lambda chi: chi >= 0.2 * math.log(2)),
            ("orthogonal-control", fixtures.orthogonal_cocycle(q2),
             lambda chi: abs(chi) <= 0.02),
        ]

    def cycle(self, c: int):
        for label, a, mu in self.exact:
            for n in self.FSE_N:
                yield (f"finite_scale_exponent/{label}/n={n}", "op",
                       lambda label=label, a=a, mu=mu, n=n: self._exact_sum(label, a, mu, n))
        for period, group in self.orbits.items():
            k = self.periodic_mix[period]
            for i in range(c * k, (c + 1) * k):
                p, params = group[i % len(group)]
                yield (f"periodic/period={period}", "op",
                       lambda p=p, params=params: self._periodic(p, params))
        yield "distortion_growth_slope", "op", self._slope
        for label, a, accept in self.shadow_cases:
            yield (f"growth_measure/{label}", "op",
                   lambda a=a, accept=accept: self._growth(a, accept))

    def _exact_sum(self, label, a, mu, n):
        a_n = regularity.finite_scale_exponent(a, mu, n)
        ref = self.reference[label]
        lo = max(1, n - self.REFERENCE_N)
        ok = all(n * a_n <= m * ref[m] + (n - m) * ref[n - m] + SUBADDITIVE_TOL
                 for m in range(lo, self.REFERENCE_N + 1))
        return ok, (a_n,)

    def _periodic(self, p, params):
        b = self.coboundary
        rep = regularity.periodic_exponents(b, p)
        exact = regularity.block_membership_periodic(b, p, params)
        q_prime = math.lcm(p.period, params.n_steps) // params.n_steps
        finite = regularity.block_membership_finite(
            b, p.as_point(), params, 2 * q_prime * params.n_steps)
        worst = max(abs(rep.lambda_plus), abs(rep.lambda_minus))
        ok = worst <= EXPONENT_TOL and bool(exact) == bool(finite)
        return ok, (rep.lambda_plus, rep.lambda_minus, bool(exact))

    def _slope(self):
        slope, means = regularity.distortion_growth_slope(
            self.coboundary, self.points, self.SLOPE_N_MAX)
        return abs(slope) <= SLOPE_TOL, (slope, means)

    def _growth(self, a, accept):
        table = shadow.growth_measure(a, self.specs, regularity.BlockParams(4, 3.0))
        return accept(table["chi_hat"]), (table,)


class PeelReconstruct:
    """Criterion 7: transfer tables written by the superdiagonal peel and
    read back by conjugacy checks and su/us transport."""

    name = "peel-reconstruct"
    tail_pct = 90.0
    DIMS = ((1, 1), (1, 1, 1), (1, 1, 1, 1))
    POINTS = 1000
    # One read op checks this many consecutive points, the first of them
    # also along the su path: every tenth point gets the su/us gap, and an
    # op takes about a millisecond instead of 50 us.
    POINTS_PER_READ = 10
    CORE = 12

    def __init__(self, root: Path, seed: int):
        rng = np.random.default_rng((seed, 3))
        q2 = sft.full_shift(2)
        mu2 = measure.uniform_bernoulli(2)
        self.cases = []
        for dims in self.DIMS:
            fix = fixtures.peel_fixture(seed=int(rng.integers(2 ** 31)), dims=dims,
                                        conjugator_window=1)
            seeds = [np.linalg.inv(cocycle.evaluate(fix.conjugator, w))
                     for w in transfer.default_basepoints(q2)]
            self.cases.append((dims, fix.base, fix.result,
                               zimmer.ZimmerDescriptor(dims, 0.0), seeds))
        self.points = [measure.sample_point(mu2, rng, self.CORE)
                       for _ in range(self.POINTS)]
        self.current = None

    def cycle(self, c: int):
        for dims, a, b, desc, seeds in self.cases:
            tag = "x".join(map(str, dims))
            yield (f"write/superdiagonal_peel/{tag}", "write",
                   lambda a=a, b=b, desc=desc, seeds=seeds: self._write(a, b, desc, seeds))
            for r in range(0, self.POINTS, self.POINTS_PER_READ):
                batch = self.points[r:r + self.POINTS_PER_READ]
                yield (f"read/{tag}", "read",
                       lambda a=a, b=b, batch=batch: self._read(a, b, batch))

    def _write(self, a, b, desc, seeds):
        self.current = None
        ev = transfer.superdiagonal_peel(a, b, desc, seeds)
        self.current = ev
        tables = tuple(t.table[w] for t in ev.stage_tables for w in sorted(t.table))
        return ev.final_residual <= RESIDUAL_TOL, tables

    def _read(self, a, b, batch):
        ev = self.current
        if ev is None:
            raise RuntimeError("no transfer table: the preceding write op failed")
        residuals = [transfer.conjugacy_residual(a, b, ev, x) for x in batch]
        gap = _max_abs(ev.evaluate(batch[0], "us") - ev.evaluate(batch[0], "su"))
        ok = max(residuals) <= RESIDUAL_TOL and gap <= PATH_TOL
        return ok, (residuals, gap)


class CliReports:
    """Criterion 9: the bundled configs through ``cli.run`` and ``emit``."""

    name = "cli-reports"
    tail_pct = 75.0
    CONFIGS = {
        "blocks": "blocks_orthogonal.json",
        "example-unipotent": "example_unipotent.json",
        "exponents": "exponents_mixed.json",
        "holonomy": "holonomy_two_block.json",
        "reconstruct": "reconstruct_two_block.json",
        "shadow": "shadow_mixed.json",
        "verify-zimmer": "verify_zimmer_two_block.json",
    }

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.configs = {}
        self.golden = {}
        for kind, fname in self.CONFIGS.items():
            self.configs[kind] = json.dumps(
                cli.load_config(str(root / "scripts" / "configs" / fname)))
            self.golden[kind] = (root / "scripts" / "reports" / f"{kind}.json").read_bytes()

    def cycle(self, c: int):
        # Each config first at its own seed, compared with the committed
        # report, then at an overriding seed derived from the workload seed.
        for kind in sorted(self.CONFIGS):
            yield f"{kind}/config-seed", "op", lambda kind=kind: self._golden(kind)
        for idx, kind in enumerate(sorted(self.CONFIGS)):
            seed = int(np.random.SeedSequence((self.seed, c, idx)).generate_state(1)[0])
            yield (f"{kind}/override-seed", "op",
                   lambda kind=kind, seed=seed: self._override(kind, seed))

    def _golden(self, kind):
        out = cli.emit(cli.run(json.loads(self.configs[kind])), "json").encode("utf-8")
        return out == self.golden[kind], (out,)

    def _override(self, kind, seed):
        config = json.loads(self.configs[kind])
        config["experiment"]["seed"] = seed
        report = cli.run(config)
        first = cli.emit(report, "json").encode("utf-8")
        second = cli.emit(report, "json").encode("utf-8")
        return bool(report["passed"]) and first == second, (first,)


WORKLOADS = {w.name: w for w in (HolonomySampled, ExactRegularity, PeelReconstruct,
                                 CliReports)}
