"""Every library name the benchmark tracer rebinds still exists, and the
tracer still sees the peel's work.

``perfbench/tracing.py`` wraps library functions and evaluator methods by
name (its ``FUNCTIONS`` and ``METHODS`` tables).  Renaming or deleting one
of them breaks the benchmark, so one test enters and leaves the tracer and
checks that each name was found, wrapped and put back.  Another runs a peel
with and without the tracer: the tables must not change, and the tracer's
``transfer.materialize.windows`` must count every window the peel
tabulated, which it does only while each stage, in both transport orders,
goes through ``materialize``.  A third runs the benchmark's own self-test
(``perfbench/selftest.py``, without its smoke runs), so that a library
change that breaks the benchmark's checks or its tracer fails here.
"""

import importlib
import importlib.util
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np

import cocyclib
from cocyclib import cocycle, fixtures, transfer
from cocyclib.zimmer import ZimmerDescriptor

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_and_restores_every_name():
    tracing = load_tracing()
    modules = [cocyclib] + [importlib.import_module(f"cocyclib.{m.name}")
                            for m in pkgutil.iter_modules(cocyclib.__path__)]
    lib = {mod.__name__.split(".")[-1]: mod for mod in modules}
    missing = [f"{m}.{attr}" for m, attr, _ in tracing.FUNCTIONS
               if not hasattr(lib[m], attr)]
    missing += [f"{m}.{cls}.{meth}" for m, cls, meth, _ in tracing.METHODS
                if meth not in vars(getattr(lib[m], cls, object))]
    assert not missing, f"names the tracer rebinds are gone: {missing}"

    namespaces = {mod.__name__: dict(vars(mod)) for mod in modules}
    methods = {(m, cls, meth): vars(getattr(lib[m], cls))[meth]
               for m, cls, meth, _ in tracing.METHODS}
    tracer = tracing.Tracer()
    try:
        tracer.__enter__()
        for m, attr, _ in tracing.FUNCTIONS:
            assert getattr(lib[m], attr) is not namespaces[lib[m].__name__][attr]
        for (m, cls, meth), raw in methods.items():
            assert vars(getattr(lib[m], cls))[meth] is not raw
    finally:
        tracer.__exit__(None, None, None)
    for name, before in namespaces.items():
        after = vars(sys.modules[name])
        assert all(after[k] is v for k, v in before.items()), name
    for (m, cls, meth), raw in methods.items():
        assert vars(getattr(lib[m], cls))[meth] is raw


def test_traced_peel_equals_untraced_and_counts_its_windows(monkeypatch):
    tracing = load_tracing()
    desc = ZimmerDescriptor((1, 1, 1), 0.0)
    fix = fixtures.peel_fixture(seed=5, dims=desc.block_dims, conjugator_window=1)
    seeds = [np.linalg.inv(cocycle.evaluate(fix.conjugator, w))
             for w in transfer.default_basepoints(fix.base.q)]

    def tables(ev):
        return ev.stage_names, [(t.window_radius, [(w, t.table[w].tobytes())
                                                   for w in sorted(t.table)])
                                for t in ev.stage_tables]

    plain = transfer.superdiagonal_peel(fix.base, fix.result, desc, seeds)
    sizes = []
    materialize = transfer.materialize

    def recording(*args, **kwargs):
        table = materialize(*args, **kwargs)
        sizes.append(len(table.table))
        return table

    monkeypatch.setattr(transfer, "materialize", recording)
    with tracing.Tracer() as tracer:
        traced = transfer.superdiagonal_peel(fix.base, fix.result, desc, seeds)
    assert tables(traced) == tables(plain)
    # one us table for the diagonal stage and each offset, and one su table
    # for each kept stage
    assert len(sizes) == desc.num_blocks + len(traced.su_tables)
    windows, _ = tracing.layer_metrics(tracer, 1)["transfer.materialize.windows"]
    assert windows == sum(sizes) > 0


def test_benchmark_selftest_passes():
    selftest = TRACING.parent / "selftest.py"
    done = subprocess.run([sys.executable, str(selftest)], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
