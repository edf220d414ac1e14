"""Span tracing of slagext's layers from outside the library.

``install`` replaces each public function listed in ``TARGETS`` with a
wrapper that records one span per call: (name, start, end, parent, item,
work). The wrapper is bound into every ``slagext`` module namespace that
holds the original function, because modules import each other's names
(``engine`` imports ``poly_mul``; ``oracles`` and ``chartio`` import
``chart_point``). Methods are patched on their class.

Spans stay in memory for one pass. ``Tracer.end_pass`` turns them into
per-layer numbers: calls, inclusive and self seconds (self time is the
span minus the time its child spans cover) and work counts, and keeps the
raw spans of the first pass so they can be written out when the run ends.
"""
from __future__ import annotations

import importlib
import sys


def _madds(args, kwargs, result):
    # computed, not measured: a truncated Cauchy product at cap c costs
    # (c+1)(c+2)/2 multiply-adds
    c = args[0].cap
    return (c + 1) * (c + 2) // 2


def _overlap_samples(args, kwargs, result):
    # samples requested; 24 is overlap_agreement's default
    return kwargs.get("samples", args[3] if len(args) > 3 else 24)


def _grid_points(args, kwargs, result):
    return len(args[1]) * len(args[2])


# (module, attribute, span name, work function or None)
TARGETS = (
    ("series", "poly_mul", "series.poly_mul", _madds),
    ("series", "poly_reciprocal", "series.poly_reciprocal", None),
    ("series", "analytic_compose", "series.analytic_compose", None),
    ("series", "even_mul", "series.even_mul", None),
    ("series", "even_int_pow", "series.even_int_pow", None),
    ("series", "SigmaJetEvaluator.jet", "series.jet", None),
    ("engine", "regular_pde_even_series", "engine.step", None),
    ("engine", "extend_series", "engine.extend_series", None),
    ("engine", "compute_R", "engine.compute_R", None),
    ("engine", "build_atlas", "engine.build_atlas", None),
    ("engine", "overlap_agreement", "engine.overlap", _overlap_samples),
    ("engine", "ReducedChartMap.point", "engine.point", None),
    ("engine", "_gauss_newton_project", "engine.gauss_newton", None),
    ("engine", "pde_residual", "engine.pde_residual", _grid_points),
    ("arcs", "normalize_at", "arcs.normalize_at", None),
    ("arcs", "existence_gate", "arcs.existence_gate", None),
    ("ambient", "chart_point", "ambient.chart_point", None),
    ("ambient", "slag_residual", "ambient.slag_residual", None),
    ("oracles", "chart_residual_report", "oracles.chart_residual_report",
     None),
    ("oracles", "unit_circle_residual", "oracles.unit_circle_residual", None),
    ("chartio", "serialize_chart", "chartio.serialize", None),
    ("chartio", "deserialize_chart", "chartio.deserialize", None),
    ("chartio", "export_mesh", "chartio.export", None),
)

# per-layer metric -> (span name, statistic, unit); statistics are per pass
LAYER_METRICS = {
    "series.poly_mul.calls": ("series.poly_mul", "calls", "count"),
    "series.poly_mul.madds": ("series.poly_mul", "work", "count"),
    "series.poly_mul.self_s": ("series.poly_mul", "self", "s"),
    "series.poly_reciprocal.self_s": ("series.poly_reciprocal", "self", "s"),
    "series.analytic_compose.self_s": ("series.analytic_compose", "self",
                                       "s"),
    "series.even_mul.calls": ("series.even_mul", "calls", "count"),
    "series.even_mul.self_s": ("series.even_mul", "self", "s"),
    "series.even_int_pow.self_s": ("series.even_int_pow", "self", "s"),
    "engine.step.calls": ("engine.step", "calls", "count"),
    "engine.step.self_s": ("engine.step", "self", "s"),
    "engine.extend_series.s": ("engine.extend_series", "total", "s"),
    "engine.compute_R.s": ("engine.compute_R", "total", "s"),
    "series.jet.calls": ("series.jet", "calls", "count"),
    "series.jet.self_s": ("series.jet", "self", "s"),
    "engine.overlap.s": ("engine.overlap", "total", "s"),
    "engine.overlap.gn_calls": ("engine.gauss_newton", "calls", "count"),
    "engine.build_atlas.s": ("engine.build_atlas", "total", "s"),
    "arcs.existence_gate.s": ("arcs.existence_gate", "total", "s"),
    "arcs.normalize_at.s": ("arcs.normalize_at", "total", "s"),
    "engine.pde_residual.s": ("engine.pde_residual", "total", "s"),
    "engine.pde_residual.points": ("engine.pde_residual", "work", "count"),
    "ambient.chart_point.calls": ("ambient.chart_point", "calls", "count"),
    "ambient.chart_point.self_s": ("ambient.chart_point", "self", "s"),
    "ambient.slag_residual.calls": ("ambient.slag_residual", "calls",
                                    "count"),
    "ambient.slag_residual.self_s": ("ambient.slag_residual", "self", "s"),
    "oracles.chart_residual_report.s": ("oracles.chart_residual_report",
                                        "total", "s"),
    "oracles.unit_circle_residual.s": ("oracles.unit_circle_residual",
                                       "total", "s"),
    "chartio.serialize.s": ("chartio.serialize", "total", "s"),
    "chartio.deserialize.s": ("chartio.deserialize", "total", "s"),
    "chartio.export.s": ("chartio.export", "total", "s"),
}

# metrics computed from span ancestry or from the workload's own counters
DERIVED_UNITS = {
    "engine.overlap.point_calls": "count",
    "engine.overlap.evals_per_sample": "ratio",
    "chartio.bytes": "bytes",
    "chartio.export.bytes": "bytes",
}

# (span, ancestor span) pairs whose counts the run reports for the
# namespace-reach check
ANCESTRY = (
    ("series.poly_mul", "engine.step"),
    ("series.poly_mul", "engine.extend_series"),
    ("engine.point", "engine.overlap"),
    ("ambient.chart_point", "oracles.unit_circle_residual"),
    ("ambient.chart_point", "oracles.chart_residual_report"),
    ("ambient.chart_point", "chartio.export"),
)


class Tracer:
    """In-memory span recorder for one worker process."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.item = None
        self.first_pass_spans = None

    def wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self.stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                w = work(args, kwargs, result) if work is not None else 0
                spans[idx] = (name, start, end, parent, self.item, w)

        traced.__wrapped__ = fn
        return traced

    def end_pass(self, counters: dict) -> dict:
        """Per-layer numbers of the pass just finished; clears the spans."""
        spans = list(self.spans)
        self.spans.clear()
        if self.first_pass_spans is None:
            self.first_pass_spans = spans
        return layer_stats(spans, counters)


def layer_stats(spans, counters: dict) -> dict:
    covered = [0.0] * len(spans)
    for name, start, end, parent, _item, _work in spans:
        if parent >= 0:
            covered[parent] += end - start
    agg = {}
    for i, (name, start, end, _parent, _item, work) in enumerate(spans):
        a = agg.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                  "work": 0})
        a["calls"] += 1
        a["total"] += end - start
        a["self"] += end - start - covered[i]
        a["work"] += work
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "work": 0}
    out = {}
    for metric, (span, stat, _unit) in LAYER_METRICS.items():
        out[metric] = agg.get(span, empty)[stat]
    under = ancestry_counts(spans)
    points = under["engine.point<engine.overlap"]
    samples = agg.get("engine.overlap", empty)["work"]
    out["engine.overlap.point_calls"] = points
    out["engine.overlap.evals_per_sample"] = points / samples if samples else 0.0
    out["chartio.bytes"] = counters.get("chartio.bytes", 0)
    out["chartio.export.bytes"] = counters.get("chartio.export.bytes", 0)
    out["ancestry"] = under
    return out


def ancestry_counts(spans) -> dict:
    """Counts of spans named A that have an ancestor named B, per ANCESTRY."""
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    out = {}
    for child, ancestor in ANCESTRY:
        inside = [False] * len(spans)
        count = 0
        # parents are recorded before their children, so one forward sweep
        # propagates "has this ancestor"
        for i, p in enumerate(parents):
            inside[i] = p >= 0 and (names[p] == ancestor or inside[p])
            if inside[i] and names[i] == child:
                count += 1
        out[f"{child}<{ancestor}"] = count
    return out


def exact_counts(stats: dict) -> dict:
    """The numbers that must repeat exactly between passes and runs."""
    keys = [m for m, spec in LAYER_METRICS.items() if spec[2] == "count"]
    keys += ["engine.overlap.point_calls", "chartio.bytes",
             "chartio.export.bytes"]
    out = {k: stats[k] for k in keys}
    out.update({f"ancestry.{k}": v for k, v in stats["ancestry"].items()})
    return out


def install(tracer: Tracer) -> list:
    """Wrap every target in every slagext namespace that binds it.

    Returns the bindings still holding an original function afterwards;
    an empty list means the wrappers reach every importing namespace.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "slagext" or name.startswith("slagext.")]
    originals = []
    for modname, attr, span, work in TARGETS:
        mod = importlib.import_module(f"slagext.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(span, orig, work))
            originals.append((orig, f"{modname}.{attr}"))
            continue
        orig = getattr(mod, attr)
        traced = tracer.wrap(span, orig, work)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, traced)
        originals.append((orig, f"{modname}.{attr}"))
    missed = []
    for m in modules:
        for key, value in vars(m).items():
            for orig, label in originals:
                if value is orig:
                    missed.append(f"{m.__name__}.{key} ({label})")
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    for orig, label in originals:
                        if fn is orig:
                            missed.append(f"{m.__name__}.{key}.{meth}")
    return missed
