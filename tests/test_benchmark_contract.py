"""Every library name the benchmark tracer rebinds still exists.

``perfbench/tracing.py`` wraps library functions and evaluator methods by
name (its ``FUNCTIONS`` and ``METHODS`` tables).  Renaming or deleting one
of them breaks the benchmark, so this test enters and leaves the tracer
and checks that each name was found, wrapped and put back.
"""

import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import cocyclib

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
