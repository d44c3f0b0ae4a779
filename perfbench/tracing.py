"""Span tracing of cocyclib from outside the library.

The library binds its collaborators with ``from .cocycle import iterate``
and similar, so a wrapper installed on ``cocyclib.cocycle.iterate`` alone
would miss every call made from ``holonomy``, ``regularity``, ``shadow``,
``transfer`` and ``cli``.  :class:`Tracer` therefore rebinds each
instrumented function in every ``cocyclib`` module namespace that holds it,
wraps evaluator methods on their classes, and restores every binding on
exit.  Per-coordinate accessors (``SymbolicPoint.__getitem__``, ``window``,
``shifted``, ``cocycle.evaluate``) are left alone: they run once per symbol
or per step and a span there would cost more than the work it measures.

Spans live in flat arrays (name id, parent index, key, start, end) and are
written out once, at the end of the run.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, attribute, span name) for the module-level functions the workloads
# reach.  A span name of None means the name depends on the call (NAMERS).
FUNCTIONS = [
    ("sft", "admissible_words", "sft.admissible_words"),
    ("sft", "enumerate_periodic", "sft.enumerate_periodic"),
    ("sft", "close_word", "sft.close_word"),
    ("sft", "splice_past", "sft.splice_past"),
    ("sft", "splice_future", "sft.splice_future"),
    ("sft", "bracket", "sft.bracket"),
    ("sft", "same_future", "sft.same_future"),
    ("sft", "same_past", "sft.same_past"),
    ("sft", "agreement_radius", "sft.agreement_radius"),
    ("sft", "distance", "sft.distance"),
    ("sft", "connecting_word", "sft.connecting_word"),
    ("measure", "stationary", "measure.stationary"),
    ("measure", "cylinder_measure", "measure.cylinder_measure"),
    ("measure", "sample_word", "measure.sample_word"),
    ("measure", "sample_point", "measure.sample_point"),
    ("measure", "sample_stable_partner", "measure.partner"),
    ("measure", "sample_unstable_partner", "measure.partner"),
    ("cocycle", "iterate", None),
    ("cocycle", "inverse_cocycle", "cocycle.inverse_cocycle"),
    ("cocycle", "backward_product", "cocycle.backward_product"),
    ("cocycle", "coboundary_conjugate", "cocycle.coboundary_conjugate"),
    ("holonomy", "stable_holonomy", "holonomy.stable"),
    ("holonomy", "unstable_holonomy", "holonomy.unstable"),
    ("regularity", "periodic_exponents", "regularity.periodic_exponents"),
    ("regularity", "finite_scale_exponent", "regularity.finite_scale_exponent"),
    ("regularity", "monte_carlo_exponent", "regularity.monte_carlo_exponent"),
    ("regularity", "block_membership_periodic", "regularity.block_membership_periodic"),
    ("regularity", "block_membership_finite", "regularity.block_membership_finite"),
    ("regularity", "smallest_passing_params", "regularity.smallest_passing_params"),
    ("regularity", "distortion_growth_slope", "regularity.distortion_growth_slope"),
    ("shadow", "default_connectors", "shadow.default_connectors"),
    ("shadow", "build_shadow", "shadow.build_shadow"),
    ("shadow", "growth_measure", "shadow.growth_measure"),
    ("shadow", "angle_experiment", "shadow.angle_experiment"),
    ("zimmer", "membership", "zimmer.membership"),
    ("zimmer", "haar_orthogonal", "zimmer.haar_orthogonal"),
    ("zimmer", "random_element", "zimmer.random_element"),
    ("transfer", "default_basepoints", "transfer.default_basepoints"),
    ("transfer", "materialize", "transfer.materialize"),
    ("transfer", "minimize_table", "transfer.minimize_table"),
    ("transfer", "_block_difference", "transfer.block_check"),
    ("transfer", "superdiagonal_peel", "transfer.superdiagonal_peel"),
    ("transfer", "conjugacy_residual", "transfer.conjugacy_residual"),
    ("transfer", "verify_conjugacy", "transfer.verify_conjugacy"),
    ("transfer", "holder_estimate", "transfer.holder_estimate"),
    ("linalg", "operator_norm", "linalg.operator_norm"),
    ("linalg", "condition_number", "linalg.condition_number"),
    ("linalg", "oblique_projection", "linalg.oblique_projection"),
    ("linalg", "principal_angle", "linalg.principal_angle"),
    ("linalg", "largest_principal_angle", "linalg.largest_principal_angle"),
    ("linalg", "angle_decay_rate", "linalg.angle_decay_rate"),
    ("linalg", "calibrate_cone_constant", "linalg.calibrate_cone_constant"),
    ("linalg", "eigensplit", "linalg.eigensplit"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "build_system", "cli.build_system"),
    ("cli", "build_measure", "cli.build_measure"),
    ("cli", "build_cocycle", "cli.build_cocycle"),
    ("cli", "build_descriptor", "cli.build_descriptor"),
    ("cli", "run", "cli.run"),
    ("cli", "emit", "cli.emit"),
]

# (module, class, method, span name) for methods and classmethods.
METHODS = [
    ("cocycle", "LocallyConstantCocycle", "from_table", "cocycle.from_table"),
    ("transfer", "PeeledEvaluator", "evaluate", None),
    ("transfer", "TransferEvaluator", "evaluate", None),
    ("transfer", "CornerEvaluator", "evaluate", "transfer.corner_evaluate"),
    ("transfer", "_DiagonalStage", "evaluate", "transfer.stage_evaluate"),
    ("transfer", "_OffsetStage", "evaluate", "transfer.stage_evaluate"),
]


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _order(args, kwargs):
    return _arg(args, kwargs, 2, "order", "us")


# Span names chosen per call, and the integer key kept with each span
# (n for orbit products and exact sums, k for holonomies, core length for
# samples), so that per-call medians can be split by input size.
NAMERS = {
    "cocycle.iterate": lambda a, k: (
        "cocycle.iterate_bwd" if _arg(a, k, 2, "n") < 0 else "cocycle.iterate_fwd"),
    "transfer.PeeledEvaluator.evaluate": lambda a, k: "transfer.evaluate_" + _order(a, k),
    "transfer.TransferEvaluator.evaluate": lambda a, k: "transfer.transport_" + _order(a, k),
}

KEYS = {
    "cocycle.iterate": lambda a, k: abs(_arg(a, k, 2, "n")),
    "holonomy.stable_holonomy": lambda a, k: a[0].window_radius,
    "holonomy.unstable_holonomy": lambda a, k: a[0].window_radius,
    "measure.sample_point": lambda a, k: _arg(a, k, 2, "core_length"),
    "regularity.finite_scale_exponent": lambda a, k: 100 * a[0].window_radius + _arg(a, k, 2, "n"),
}


class Tracer:
    """Installs span-recording wrappers into the ``cocyclib`` namespaces.

    Use as a context manager; bindings are restored on exit even when the
    traced code raises.
    """

    package = "cocyclib"

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.key = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._restore: list = []
        self._pre, self._post = self._hooks()

    # -- span recording -------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, key: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.key.append(key)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, qualname: str, fn, span: str | None):
        fixed = None if span is None else self._nid(span)
        namer = NAMERS.get(qualname)
        keyer = KEYS.get(qualname)
        pre, post = self._pre.get(qualname), self._post.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if namer is None else tracer._nid(namer(args, kwargs))
            key = 0 if keyer is None else int(keyer(args, kwargs))
            if pre is not None:
                pre()
            idx = tracer._open(nid, key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, span: str):
        """Each ``next()`` on the returned iterator is its own span, so the
        consumer's self time excludes the enumeration it drives."""
        nid = self._nid(span)
        tracer = self

        def timed(it, counter):
            while True:
                idx = tracer._open(nid, 0)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer.counts[counter] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(q, length, *args, **kwargs):
            tracer.counts["sft.admissible_words.full"] += q.size ** max(length, 1)
            return timed(fn(q, length, *args, **kwargs), "sft.admissible_words.words")

        return wrapper

    def _hooks(self):
        """(pre, post) hooks by qualified name, for counters read off the
        arguments and results of a call."""
        counts = self.counts

        def fse_start():
            self._fse_words_before = counts["sft.admissible_words.words"]

        def fse_words(args, kwargs, result):
            # Words enumerated by this call against the budget it was given.
            words = counts["sft.admissible_words.words"] - self._fse_words_before
            budget = _arg(args, kwargs, 3, "budget", self._fse_budget)
            self.maxima["regularity.words_budget_frac"] = max(
                self.maxima["regularity.words_budget_frac"], words / budget)

        def materialized(args, kwargs, result):
            counts["transfer.materialize.windows"] += len(result.table)

        def peeled(args, kwargs, result):
            counts["transfer.stage_tables_kept"] += len(result.stage_tables)

        def emitted(args, kwargs, result):
            counts["cli.emit.bytes"] += len(result.encode("utf-8"))

        pre = {"regularity.finite_scale_exponent": fse_start}
        post = {
            "regularity.finite_scale_exponent": fse_words,
            "transfer.materialize": materialized,
            "transfer.superdiagonal_peel": peeled,
            "cli.emit": emitted,
        }
        return pre, post

    # -- installation ----------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def __enter__(self):
        modules = self._modules()
        self._fse_budget = sys.modules[f"{self.package}.regularity"].DEFAULT_WORD_BUDGET
        for mod_name, attr, span in FUNCTIONS:
            orig = getattr(sys.modules[f"{self.package}.{mod_name}"], attr)
            qualname = f"{mod_name}.{attr}"
            if attr == "admissible_words":
                wrapped = self._wrap_generator(orig, span)
            else:
                wrapped = self._wrap(qualname, orig, span)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, name, value))
                        setattr(mod, name, wrapped)
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[f"{self.package}.{mod_name}"], cls_name)
            raw = cls.__dict__[meth]
            qualname = f"{mod_name}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(qualname, raw.__func__, span))
            else:
                wrapped = self._wrap(qualname, raw, span)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()
        return False

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        names = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": names, "parent": parent,
                "key": np.frombuffer(self.key, dtype=np.int64).copy(),
                "start": start, "end": end, "dur": dur, "self": dur - child}

    def save(self, path) -> None:
        """Write every span (name table plus columns) as a compressed npz."""
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names),
                            name=cols["name"], parent=cols["parent"],
                            key=cols["key"], start=cols["start"], end=cols["end"])


LAYERS = ("sft", "measure", "cocycle", "holonomy", "regularity", "shadow",
          "zimmer", "transfer", "linalg", "cli")

# Span totals reported per cycle of the workload: (metric, span, field).
SPAN_TOTALS = [
    ("sft.close_word.calls", "sft.close_word", "calls"),
    ("sft.bracket.calls", "sft.bracket", "calls"),
    ("sft.same_future.calls", "sft.same_future", "calls"),
    ("sft.same_past.calls", "sft.same_past", "calls"),
    ("measure.sample_point.calls", "measure.sample_point", "calls"),
    ("measure.partner.calls", "measure.partner", "calls"),
    ("cocycle.iterate_fwd.self_s", "cocycle.iterate_fwd", "self"),
    ("cocycle.iterate_bwd.self_s", "cocycle.iterate_bwd", "self"),
    ("cocycle.from_table.calls", "cocycle.from_table", "calls"),
    ("cocycle.coboundary_conjugate.self_s", "cocycle.coboundary_conjugate", "self"),
    ("holonomy.stable.calls", "holonomy.stable", "calls"),
    ("holonomy.unstable.calls", "holonomy.unstable", "calls"),
    ("regularity.finite_scale_exponent.self_s", "regularity.finite_scale_exponent", "self"),
    ("regularity.periodic_exponents.calls", "regularity.periodic_exponents", "calls"),
    ("regularity.block_membership_periodic.self_s",
     "regularity.block_membership_periodic", "self"),
    ("regularity.distortion_growth_slope.self_s",
     "regularity.distortion_growth_slope", "self"),
    ("regularity.monte_carlo_exponent.self_s", "regularity.monte_carlo_exponent", "self"),
    ("shadow.growth_measure.self_s", "shadow.growth_measure", "self"),
    ("shadow.build_shadow.calls", "shadow.build_shadow", "calls"),
    ("zimmer.membership.calls", "zimmer.membership", "calls"),
    ("transfer.superdiagonal_peel.self_s", "transfer.superdiagonal_peel", "self"),
    ("transfer.materialize.self_s", "transfer.materialize", "self"),
    ("transfer.minimize_table.self_s", "transfer.minimize_table", "self"),
    ("transfer.evaluate_us.calls", "transfer.evaluate_us", "calls"),
    ("transfer.evaluate_us.self_s", "transfer.evaluate_us", "self"),
    ("transfer.evaluate_su.self_s", "transfer.evaluate_su", "self"),
    ("transfer.conjugacy_residual.calls", "transfer.conjugacy_residual", "calls"),
    ("cli.run.self_s", "cli.run", "self"),
    ("cli.emit.self_s", "cli.emit", "self"),
]

# Per-call medians of inclusive duration: (metric, span, key or None, scale).
MEDIANS = [
    ("measure.sample_point.p50_us", "measure.sample_point", None, 1e-3),
    ("measure.sample_point.core10_p50_us", "measure.sample_point", 10, 1e-3),
    ("holonomy.stable.p50_us", "holonomy.stable", None, 1e-3),
    ("holonomy.stable.k1_p50_us", "holonomy.stable", 1, 1e-3),
    ("cocycle.iterate_fwd.n20_p50_us", "cocycle.iterate_fwd", 20, 1e-3),
    ("cocycle.iterate_bwd.n20_p50_us", "cocycle.iterate_bwd", 20, 1e-3),
] + [
    (f"regularity.finite_scale_exponent.k{k}_n{n}_p50_ms",
     "regularity.finite_scale_exponent", 100 * k + n, 1e-6)
    for k in (0, 2) for n in (10, 12, 14)
]

UNITS = {"calls": "calls/cycle", "self": "s/cycle"}


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase of ``cycles`` whole cycles.

    Totals are divided by the number of cycles, so they measure a fixed
    amount of work and stay comparable between commits whose speed differs.
    """
    cols = tracer.arrays()
    names = np.array(tracer.names + [""])
    span_names = names[cols["name"]] if len(cols["name"]) else np.array([], dtype=str)
    by_name = {name: np.flatnonzero(span_names == name) for name in tracer.names}
    empty = np.array([], dtype=np.int64)
    out: dict[str, tuple[float, str]] = {}
    per = 1.0 / max(cycles, 1)

    for layer in LAYERS:
        mask = np.char.startswith(span_names, layer + ".") if len(span_names) else empty
        out[f"{layer}.self_s"] = (float(cols["self"][mask].sum()) * 1e-9 * per, "s/cycle")
    for metric, span, field in SPAN_TOTALS:
        idx = by_name.get(span, empty)
        value = len(idx) if field == "calls" else float(cols["self"][idx].sum()) * 1e-9
        out[metric] = (value * per, UNITS[field])
    for metric, span, key, scale in MEDIANS:
        idx = by_name.get(span, empty)
        if key is not None:
            idx = idx[cols["key"][idx] == key]
        value = float(np.median(cols["dur"][idx])) * scale if len(idx) else 0.0
        out[metric] = (value, "us" if metric.endswith("_us") else "ms")

    iterate = np.concatenate([by_name.get("cocycle.iterate_fwd", empty),
                              by_name.get("cocycle.iterate_bwd", empty)])
    counts = tracer.counts
    out["cocycle.iterate.calls"] = (len(iterate) * per, "calls/cycle")
    # Computed, not measured: one matrix product (or inverse and product)
    # per step of each orbit product.
    out["cocycle.iterate.matmuls"] = (float(cols["key"][iterate].sum()) * per, "count/cycle")
    words = counts["sft.admissible_words.words"]
    out["sft.admissible_words.words"] = (words * per, "count/cycle")
    full = counts["sft.admissible_words.full"]
    out["sft.admissible_words.yield_ratio"] = (words / full if full else 0.0, "ratio")
    out["regularity.words_budget_frac"] = (tracer.maxima["regularity.words_budget_frac"],
                                           "ratio")
    out["transfer.materialize.windows"] = (counts["transfer.materialize.windows"] * per,
                                           "count/cycle")
    stages = len(by_name.get("transfer.materialize", empty))
    out["transfer.stages_kept_ratio"] = (
        counts["transfer.stage_tables_kept"] / stages if stages else 0.0, "ratio")
    out["cli.emit.bytes"] = (counts["cli.emit.bytes"] * per, "bytes/cycle")
    out["trace.spans"] = (len(span_names) * per, "count/cycle")
    return out


# Per-call medians from ROADMAP's baseline table, for cross-checking.
ROADMAP_BASELINE = {
    "measure.sample_point.core10_p50_us": 200.0,
    "cocycle.iterate_fwd.n20_p50_us": 128.0,
    "cocycle.iterate_bwd.n20_p50_us": 327.0,
    "holonomy.stable.k1_p50_us": 62.0,
}


def cross_check(measured: dict[str, tuple[float, str]]) -> dict:
    """Traced per-call medians (from :func:`layer_metrics`) next to the
    ROADMAP baseline values."""
    rows = {}
    for metric, baseline in ROADMAP_BASELINE.items():
        value = measured[metric][0]
        rows[metric] = {"measured": value, "roadmap": baseline,
                        "ratio": value / baseline if value else None}
    for metric, _, _, _ in MEDIANS:
        if metric.startswith("regularity.finite_scale_exponent") and measured[metric][0]:
            rows[metric] = {"measured": measured[metric][0]}
    return rows
