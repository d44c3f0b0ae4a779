#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py            # corruption and tracer checks
    python3 perfbench/selftest.py --smoke    # also one short run per workload

The corruption checks feed the benchmark's own ops a report with one byte
changed and holonomies perturbed by 1e-9, and require that both count as
failed ops.  The smoke runs start ``run.py`` for every workload with and
without tracing and require every metric of ``BENCHMARK.json`` with its unit.
"""

import json
import os
import subprocess
import sys
import unittest
from unittest import mock
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cocyclib import cli, holonomy, regularity, sft, transfer  # noqa: E402


class CorruptedOutputsFail(unittest.TestCase):

    def _run_ops(self, ops):
        failures = Counter()
        results = [run.execute_op(fn, failures) for _, _, fn in ops]
        return [ok for ok, _ in results], failures

    def test_report_with_one_byte_changed_fails(self):
        w = workloads.CliReports(ROOT, 0)
        ops = [op for op in w.cycle(0) if op[0] == "verify-zimmer/config-seed"]
        oks, _ = self._run_ops(ops)
        self.assertEqual(oks, [True])

        def flip_one_byte(emit):
            def corrupted(report, fmt):
                text = emit(report, fmt)
                i = len(text) // 2
                return text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]
            return corrupted

        with mock.patch.object(cli, "emit", flip_one_byte(cli.emit)):
            oks, failures = self._run_ops(ops)
        self.assertEqual(oks, [False])
        self.assertEqual(failures, Counter(check=1))

    def test_holonomy_perturbed_by_1e_9_fails(self):
        w = workloads.HolonomySampled(ROOT, 0)
        ops = list(w.cycle(0))
        oks, _ = self._run_ops(ops)
        self.assertTrue(all(oks))

        def perturb(stable):
            def perturbed(a, y, z):
                h = stable(a, y, z)
                return holonomy.HolonomyMap(h.from_point, h.to_point, h.kind,
                                            h.matrix + 1e-9, h.stabilization_step)
            return perturbed

        with mock.patch.object(holonomy, "stable_holonomy",
                               perturb(holonomy.stable_holonomy)):
            oks, failures = self._run_ops(ops)
        self.assertFalse(any(oks))
        self.assertEqual(failures, Counter(check=len(ops)))

    def test_exceptions_count_and_do_not_abort(self):
        def raising(exc):
            def fn():
                raise exc
            return fn

        errors = [sft.BudgetExceededError("budget"), OverflowError("overflow"),
                  transfer.StageError("diagonal", 1.0, 1e-8), KeyError("other")]
        ops = [("op", "op", raising(e)) for e in errors]
        ops.append(("op", "op", lambda: (True, "")))
        oks, failures = self._run_ops(ops)
        self.assertEqual(oks, [False] * 4 + [True])
        self.assertEqual(failures, Counter(BudgetExceededError=1, OverflowError=1,
                                           StageError=1, KeyError=1))


class HostSpeed(unittest.TestCase):

    def test_ops_are_scaled_by_the_nearest_kernel_timings(self):
        # The host is slow for the first second; an op's time goes as the
        # kernel's to the power EXPONENT in either state.
        ref_starts = np.arange(0.0, 2.0, 0.05)
        ref_ms = np.where(ref_starts < 1.0, 2.0, 1.0)
        op_starts = np.array([0.1, 0.5, 1.5, 1.9])
        latencies = 3 * np.where(op_starts < 1.0, 2.0, 1.0) ** hostspeed.EXPONENT
        scaled = hostspeed.scale_ops(op_starts, latencies, ref_starts, ref_ms)
        np.testing.assert_allclose(scaled, 3 * hostspeed.NOMINAL_MS ** hostspeed.EXPONENT)


class TracerRebinding(unittest.TestCase):

    def test_calls_between_modules_are_traced_and_restored(self):
        import cocyclib
        from cocyclib import cocycle
        originals = (cocycle.iterate, regularity.iterate, holonomy.iterate,
                     cocyclib.iterate)
        q = sft.full_shift(2)
        a = cocycle.LocallyConstantCocycle.constant(q, [[2.0, 0.0], [0.0, 0.5]])
        p = sft.periodic_point(q, (0, 1))
        expected = regularity.periodic_exponents(a, p)
        with tracing.Tracer() as tracer:
            self.assertIsNot(regularity.iterate, originals[1])
            got = regularity.periodic_exponents(a, p)
        self.assertEqual(got, expected)
        self.assertEqual((cocycle.iterate, regularity.iterate, holonomy.iterate,
                          cocyclib.iterate), originals)
        cols = tracer.arrays()
        names = [tracer.names[i] for i in cols["name"]]
        self.assertEqual(names, ["regularity.periodic_exponents", "cocycle.iterate_fwd"])
        self.assertEqual(list(cols["parent"]), [-1, 0])
        self.assertEqual(cols["self"][0] + cols["dur"][1], cols["dur"][0])

    def test_generator_spans_and_word_counts(self):
        q = sft.golden_mean_shift()
        with tracing.Tracer() as tracer:
            words = list(sft.admissible_words(q, 5))
        self.assertEqual(len(words), 13)
        self.assertEqual(tracer.counts["sft.admissible_words.words"], 13)
        metrics = tracing.layer_metrics(tracer, 1)
        self.assertAlmostEqual(metrics["sft.admissible_words.yield_ratio"][0], 13 / 32)


def run_workload(name, trace, seconds="0.01"):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "0",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    return proc.returncode, proc.stdout.strip().splitlines()


class Smoke(unittest.TestCase):
    """One short run per workload and trace mode."""

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def _check(self, name, trace):
        code, lines = run_workload(name, trace)
        self.assertEqual(code, 0, lines[-5:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in expected})
        for metric in result["metrics"].values():
            self.assertTrue(np.isfinite(metric["value"]))
        if not trace:
            self.assertTrue(all(result["metrics"][m["name"]]["value"] > 0 for m in expected))
        else:
            self.assertEqual(result["metrics"]["trace.parity_mismatches"]["value"], 0)


for _name in workloads.WORKLOADS:
    for _trace in (0, 1):
        def _test(self, name=_name, trace=_trace):
            self._check(name, trace)
        setattr(Smoke, f"test_{_name.replace('-', '_')}_trace{_trace}", _test)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    loader = unittest.TestLoader()
    suite = unittest.TestSuite()
    cases = [CorruptedOutputsFail, HostSpeed, TracerRebinding] + ([Smoke] if smoke else [])
    for case in cases:
        suite.addTests(loader.loadTestsFromTestCase(case))
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    sys.exit(0 if result.wasSuccessful() else 1)
