#!/usr/bin/env python3
"""cocyclib benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout, never from an installed copy.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` splits ``--seconds`` between an untraced and a traced phase on
the same inputs, checks that both compute the same values, and reports the
per-layer metrics.  Times are scaled to a reference host speed
(``hostspeed.py``).  ``--setup-probe`` only imports and sets up, prints the
time that took and exits; a run starts it to time set-up in fresh
processes.  Details of each run (machine, per-op-label latencies, unscaled
figures, failures by type) go to ``.perfbench_out/`` in the checkout.
"""

import time

PROCESS_T0 = time.perf_counter()

import os  # noqa: E402

# One thread everywhere: set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
# setup_s is the median of this many scaled set-ups, each in a fresh
# process (the run's own and SETUP_PROCESSES - 1 probes), so that the
# import counts every time.  Over ten runs per workload the median spread
# by 6-12% (interquartile range over median), the fastest by 10-22%.
SETUP_PROCESSES = 7
# A phase that has not gathered enough samples for its tail percentile
# stops anyway after this many multiples of --seconds.
MAX_STRETCH = 4


def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile and the number of samples above it."""
    n = len(sorted_values)
    idx = max(0, math.ceil(pct / 100.0 * n) - 1)
    return sorted_values[idx], n - 1 - idx


def execute_op(fn, failures):
    """Run one op.  A failed check and any exception both count as a failed
    op, tallied in ``failures`` by kind; neither stops the run."""
    try:
        ok, values = fn()
    except Exception as exc:
        failures[type(exc).__name__] += 1
        return False, (type(exc).__name__,)
    if not ok:
        failures["check"] += 1
    return bool(ok), values


def fingerprint(values) -> str:
    """Hash of what an op computed, for comparing a traced phase with an
    untraced one value by value."""
    h = hashlib.blake2b(digest_size=12)
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, bytes):
            h.update(v)
        else:
            h.update(repr(v).encode())
        h.update(b"|")
    return h.hexdigest()


def run_phase(workload, seconds, traced_pair=False):
    """Run whole cycles of the workload's ops until ``seconds`` have passed
    and the tail percentile has at least ten samples above it.  The phases
    of a traced run (``traced_pair``) keep each op's (label, ok,
    fingerprint) for the parity check; an untraced run keeps only latency,
    start time and label id, so memory barely grows with throughput.  The
    host-speed kernel is timed before the first op and then before each op
    that starts at least ``hostspeed.EVERY_S`` after the last timing."""
    latencies = array("q")
    starts = array("d")
    ref_starts, ref_ms = array("d"), array("d")
    label_ids = array("H")
    labels, kinds = {}, {}
    outcomes = []
    failures = Counter()
    cycle_ends = []
    t0 = time.perf_counter()
    next_ref = t0
    while True:
        for label, kind, fn in workload.cycle(len(cycle_ends)):
            if time.perf_counter() >= next_ref:
                ref_starts.append(time.perf_counter() - t0)
                ref_ms.append(hostspeed.time_kernel_ms())
                next_ref = time.perf_counter() + hostspeed.EVERY_S
            starts.append(time.perf_counter() - t0)
            start = time.perf_counter_ns()
            ok, values = execute_op(fn, failures)
            latencies.append(time.perf_counter_ns() - start)
            label_ids.append(labels.setdefault(label, len(labels)))
            kinds[label] = kind
            if traced_pair:
                outcomes.append((label, ok, fingerprint(values)))
        cycle_ends.append(len(latencies))
        elapsed = time.perf_counter() - t0
        _, above = nearest_rank(range(len(latencies)), workload.tail_pct)
        if elapsed >= seconds and above >= 10 or elapsed >= MAX_STRETCH * seconds:
            break
    return {"elapsed": elapsed, "cycle_ends": cycle_ends, "latencies": latencies,
            "starts": starts, "ref_starts": ref_starts, "ref_ms": ref_ms,
            "label_ids": label_ids, "labels": list(labels), "kinds": kinds,
            "outcomes": outcomes, "failures": failures}


def summarize(phase, tail_pct):
    """Latency figures of a phase, each op's latency scaled to the host's
    reference speed (``hostspeed``); the wall-clock figures are kept beside
    them for the details file."""
    n = len(phase["latencies"])
    raw_ms = np.frombuffer(phase["latencies"], dtype=np.int64) / 1e6
    scaled = hostspeed.scale_ops(phase["starts"], raw_ms, phase["ref_starts"],
                                 phase["ref_ms"])
    tail, above = nearest_rank(np.sort(scaled), tail_pct)
    ids = np.frombuffer(phase["label_ids"], dtype=np.uint16)
    failed = sum(phase["failures"].values())
    return {
        "attempted": n,
        "failed": failed,
        "failed_frac": failed / n,
        "ops_per_s": n / scaled.sum() * 1e3,
        "op_p50_ms": float(np.median(scaled)),
        "op_tail_ms": float(tail),
        "tail_percentile": tail_pct,
        "tail_samples_above": above,
        "reference_ms_p50": statistics.median(phase["ref_ms"]),
        "reference_timings": len(phase["ref_ms"]),
        "wall_ops_per_s": n / phase["elapsed"],
        "wall_p50_ms": float(np.median(raw_ms)),
        "wall_tail_ms": float(nearest_rank(np.sort(raw_ms), tail_pct)[0]),
        "cycles": len(phase["cycle_ends"]),
        "elapsed_s": phase["elapsed"],
        "failures": dict(phase["failures"]),
        "by_label": {k: {"ops": int(np.sum(ids == i)),
                         "p50_ms": float(np.median(scaled[ids == i])),
                         "wall_p50_ms": float(np.median(raw_ms[ids == i])),
                         "wall_total_s": float(raw_ms[ids == i].sum() / 1e3)}
                     for i, k in enumerate(phase["labels"])},
    }


def build_seconds(summary, kinds):
    """Table-building time: the median time of each kind of write op (one
    per block layout), summed over the kinds."""
    writes = [v["p50_ms"] / 1e3 for k, v in summary["by_label"].items()
              if kinds[k] == "write"]
    return sum(writes) if writes else None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def machine_info():
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception as exc:  # show_config layouts differ across numpy versions
        blas = f"unknown ({type(exc).__name__})"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                      "OPENBLAS_NUM_THREADS")}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and set up only, print the measured and the "
                             "scaled seconds this took and exit")
    return parser.parse_args(argv)


def import_library():
    src = ROOT / "src"
    if not (src / "cocyclib" / "__init__.py").is_file():
        raise SystemExit(f"error: no cocyclib sources under {src}; run from a "
                         f"source checkout")
    sys.path.insert(0, str(src))
    import cocyclib
    if Path(cocyclib.__file__).resolve().parent != (src / "cocyclib").resolve():
        raise SystemExit(f"error: imported cocyclib from {cocyclib.__file__}, "
                         f"not from {src}")
    for path in ("scripts/configs", "scripts/reports"):
        if not (ROOT / path).is_dir():
            raise SystemExit(f"error: {ROOT / path} is missing")


def probe_setup(args):
    """Seconds from process start to a set-up workload in a fresh process,
    as measured and scaled."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"expected one of {sorted(WORKLOADS)}")
    if args.seed < 0:
        raise SystemExit("error: --seed must be >= 0")
    import_s = time.perf_counter() - PROCESS_T0
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    own_setup = hostspeed.scale_setup(time.perf_counter() - PROCESS_T0)
    if args.setup_probe:
        print(json.dumps(own_setup))
        return 0
    setups = [own_setup] + [probe_setup(args) for _ in range(SETUP_PROCESSES - 1)]
    setup_s = statistics.median(scaled for _, scaled in setups)

    # A traced run splits --seconds between the untraced and traced phases.
    phase = run_phase(workload, args.seconds / (1 + args.trace),
                      traced_pair=args.trace == 1)
    plain = summarize(phase, workload.tail_pct)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "import_s": import_s, "setup_processes_s": setups,
              "setup_s": setup_s, "untraced": plain,
              "build_s": build_seconds(plain, phase["kinds"])}
    failed, attempted = plain["failed"], plain["attempted"]
    correct = failed == 0
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace == 0:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": plain["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": plain["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": plain["op_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    else:
        with tracing.Tracer() as tracer:
            traced_phase = run_phase(workload, args.seconds / 2, traced_pair=True)
        traced = summarize(traced_phase, workload.tail_pct)
        common = min(len(phase["outcomes"]), len(traced_phase["outcomes"]))
        mismatches = sum(1 for a, b in zip(phase["outcomes"][:common],
                                           traced_phase["outcomes"][:common]) if a != b)
        layer = tracing.layer_metrics(tracer, traced["cycles"])
        untraced_rate = plain["ops_per_s"]
        traced_rate = traced["ops_per_s"]
        layer["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
        layer["trace.traced_ops_per_s"] = (traced_rate, "1/s")
        layer["trace.ops_per_s_ratio"] = (traced_rate / untraced_rate, "ratio")
        layer["trace.parity_mismatches"] = (mismatches, "count")
        layer["trace.parity_ops_compared"] = (common, "count")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        detail.update(traced=traced, parity_mismatches=mismatches,
                      parity_ops_compared=common,
                      baseline_cross_check=tracing.cross_check(layer))
        failed += traced["failed"]
        attempted += traced["attempted"]
        correct = failed == 0 and mismatches == 0
        tracer.save(OUT_DIR / f"spans-{args.workload}.npz")

    detail["machine"] = machine_info()
    detail["metrics"] = metrics
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, sort_keys=True, allow_nan=False) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"cycles={plain['cycles']} elapsed={plain['elapsed_s']:.2f}s "
          f"sha={detail['machine']['git_sha'][:12]}")
    print(f"# failed_frac {failed / attempted:.6g} ({failed} of {attempted} ops; untraced "
          f"failures by kind: {plain['failures'] or 'none'})")
    print(f"# op_tail_ms is p{workload.tail_pct:g} with {plain['tail_samples_above']} "
          f"of {plain['attempted']} samples above")
    print(f"# unscaled: {plain['wall_ops_per_s']:.6g} ops/s, p50 "
          f"{plain['wall_p50_ms']:.6g} ms, tail {plain['wall_tail_ms']:.6g} ms; "
          f"reference kernel p50 {plain['reference_ms_p50']:.4g} ms over "
          f"{plain['reference_timings']} timings")
    if detail["build_s"] is not None:
        print(f"# build_s {detail['build_s']:.6g} s (sum of per-layout median peel times)")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"# details: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
