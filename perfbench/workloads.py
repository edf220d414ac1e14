"""Seeded inputs, timed passes and output checks of the benchmark workloads.

Each workload writes its inputs from the seed as the JSON documents the
``slagext`` command line reads (``load_arc`` arc documents plus a plan of
parameters), loads them back, and then runs passes. A pass is the work up
to a verified result; it is cut into items, and every item carries the
output checks that decide whether it failed. The library is called through
its module attributes, so the tracer's wrappers see every call.

Thresholds are the repository's own: the ``slagext residual`` limits, the
criterion 6, 8, 9 and 13 gates of the acceptance suite.
"""
from __future__ import annotations

import json
import math
import os
import random
import traceback
from contextlib import contextmanager

import mpmath
import numpy as np

from slagext import arcs, chartio, engine, oracles
from slagext.precision import FLOAT64, mp_context

RESIDUAL_TOL = 1e-6    # `slagext residual --tolerance` default
MOMENTUM_TOL = 1e-10   # momentum limit fixed in `slagext residual`
OVERLAP_TOL = 1e-6     # criterion 9, K = 10
LOCUS_TOL = 1e-8       # criterion 8 and `slagext oracle circle`


class Checks:
    """Outcome of the output checks of one item."""

    def __init__(self):
        self.failures = []
        self.digits = []   # log10(limit / residual) per residual check

    def limit(self, name: str, residual, limit: float) -> None:
        r = float(residual)
        if not r <= limit:  # NaN fails too
            self.failures.append(f"{name} {r:.3e} > {limit:.0e}")
        if r > 0 and math.isfinite(r):
            self.digits.append(math.log10(limit / r))

    def require(self, name: str, ok: bool) -> None:
        if not ok:
            self.failures.append(name)


class PassRecorder:
    """Items of one pass: latency in ms, checks and the speed-probe chunks
    that ran during the item, plus exact counters."""

    def __init__(self, probe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.items = []      # (ms or None, Checks)
        self.item_probe_s = []
        self.counters = {}

    @contextmanager
    def item(self):
        checks = Checks()
        if self.tracer is not None:
            self.tracer.item = len(self.items)
        first_chunk = len(self.probe.chunks)
        start = self.probe.clock()
        try:
            yield checks
        except Exception as exc:  # a failing item is counted, not dropped
            traceback.print_exc()
            checks.failures.append(f"{type(exc).__name__}: {exc}")
        finally:
            self.items.append(((self.probe.clock() - start) * 1e3, checks))
            self.item_probe_s.append(self.probe.chunks[first_chunk:])
            if self.tracer is not None:
                self.tracer.item = None

    def fail_pass(self, reason: str, items_per_pass: int) -> None:
        """A pass-level check failed: every item of the pass fails, and
        items never reached are added as failed, without a latency."""
        for _ms, checks in self.items:
            checks.failures.append(reason)
        while len(self.items) < items_per_pass:
            checks = Checks()
            checks.failures.append(reason)
            self.items.append((None, checks))
            self.item_probe_s.append([])

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def round_trip(chart, checks: Checks, rec: PassRecorder):
    """Chart -> JSON text -> chart; the reload must be exact (criterion 13)."""
    text = json.dumps(chartio.serialize_chart(chart))
    rec.count("chartio.bytes", len(text))
    back = chartio.deserialize_chart(json.loads(text))
    exact = (
        all(a.coeffs == b.coeffs
            for a, b in zip(chart.phi.terms, back.phi.terms))
        and len(back.phi.terms) == len(chart.phi.terms)
        and back.frame.a == chart.frame.a
        and back.frame.theta == chart.frame.theta
        and back.branch == chart.branch and back.n == chart.n
    )
    checks.require("JSON round trip not exact", exact)
    return back


def _grid(lo: float, hi: float, count: int) -> list:
    return [lo + (hi - lo) * j / (count - 1) for j in range(count)]


def _write(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)


def _dec(x: float, digits: int = 6) -> str:
    return f"{x:.{digits}f}"


def _graph_doc(rng: random.Random, a2_width: float, tail_width: float,
               degree_cap: int) -> dict:
    coeffs = ["0", "0", _dec(0.5 + rng.uniform(-a2_width, a2_width)),
              _dec(rng.uniform(-tail_width, tail_width)),
              _dec(rng.uniform(-tail_width, tail_width))]
    return {"kind": "graph", "g_coeffs": coeffs, "degree_cap": degree_cap}


def _rotated_unit_circle(phase):
    """The exact unit circle, parametrized from angle ``phase``."""
    base = arcs.unit_circle_arc(FLOAT64)

    def hook(s0, cap):
        return base.resample(s0 + phase, cap)

    x, y = hook(0.0, 32)
    return arcs.ArcSpec(kind="parametric", x=x, y=y, closed=True,
                        period=base.period, domain=base.domain,
                        resample=hook)


class Workload:
    name = ""
    items_per_pass = 0

    def generate(self, rng: random.Random, workdir: str) -> None:
        raise NotImplementedError

    def load(self, workdir: str) -> None:
        raise NotImplementedError

    def run_pass(self, rec: PassRecorder) -> None:
        raise NotImplementedError


class ExtendDeep(Workload):
    """`slagext extend`, all branches, of a near-parabola at K = 16."""

    name = "extend-deep"
    n, K, D = 3, 16, 64
    items_per_pass = 3
    sigma_max = 0.1

    def generate(self, rng, workdir):
        _write(os.path.join(workdir, "arc.json"),
               _graph_doc(rng, 0.05, 0.05, self.D))
        _write(os.path.join(workdir, "plan.json"),
               {"s0": _dec(rng.uniform(-0.1, 0.1))})

    def load(self, workdir):
        self.arc = arcs.load_arc(
            chartio.read_json(os.path.join(workdir, "arc.json")))
        plan = chartio.read_json(os.path.join(workdir, "plan.json"))
        self.s0 = FLOAT64.real(plan["s0"])
        # the `slagext residual` grid: 9 x 7 over |t| <= 0.1, 0 < sigma
        self.ts = _grid(-0.1, 0.1, 9)
        self.ss = [self.sigma_max * (j + 1) / 7 for j in range(7)]

    def run_pass(self, rec):
        for branch in range(self.n):
            with rec.item() as checks:
                chart = engine.extend_arc(self.arc, self.s0, n=self.n,
                                          K=self.K, D=self.D, branch=branch)
                res = engine.pde_residual(chart.phi, self.ts, self.ss)
                checks.limit("pde", res.max_pde, RESIDUAL_TOL)
                round_trip(chart, checks, rec)


class AtlasCircle(Workload):
    """`slagext atlas` on the unit circle: 12 charts and 12 overlaps."""

    name = "atlas-circle"
    n, K, D, charts = 2, 10, 40, 12
    items_per_pass = 12
    sigma_max = 0.05
    halfwidth = 0.35

    def generate(self, rng, workdir):
        # the circle has no shape parameter; the seed rotates where its
        # parametrization, and so every chart center, starts
        _write(os.path.join(workdir, "plan.json"),
               {"arc": "circle",
                "phase": _dec(rng.uniform(0.0, 2 * math.pi / self.charts))})

    def load(self, workdir):
        plan = chartio.read_json(os.path.join(workdir, "plan.json"))
        self.arc = _rotated_unit_circle(FLOAT64.real(plan["phase"]))

    def run_pass(self, rec):
        try:
            gate = arcs.existence_gate(self.arc, self.n)
            charts = engine.build_atlas(self.arc, self.n, self.K, self.D,
                                        2 * math.pi / self.charts)
        except Exception as exc:
            traceback.print_exc()
            rec.fail_pass(f"atlas: {type(exc).__name__}: {exc}",
                          self.items_per_pass)
            return
        m = len(charts)
        for i in range(m):
            with rec.item() as checks:
                round_trip(charts[i], checks, rec)
                sup = engine.overlap_agreement(
                    charts[i], charts[(i + 1) % m], self.sigma_max,
                    t_halfwidth=self.halfwidth,
                    t_halfwidth_other=self.halfwidth)
                checks.limit("overlap sup", sup, OVERLAP_TOL)
        if not gate.ok or m != self.charts:
            rec.fail_pass(f"gate ok={gate.ok}, {m} charts",
                          self.items_per_pass)


class DecayMp40(Workload):
    """Residual decay of a parabola-like arc at 40 digits (criterion 6)."""

    name = "decay-mp40"
    n, K, D, dps = 2, 8, 48, 40
    items_per_pass = 3
    sigma_maxes = ("0.025", "0.05", "0.1")

    def generate(self, rng, workdir):
        # narrow ranges: the residual at sigma 0.1, and with it
        # accuracy_digits, moves with the arc's curvature
        _write(os.path.join(workdir, "arc.json"),
               _graph_doc(rng, 0.01, 0.01, self.D))
        _write(os.path.join(workdir, "plan.json"),
               {"precision": f"mp{self.dps}",
                "s0": _dec(rng.uniform(-0.1, 0.1))})

    def load(self, workdir):
        plan = chartio.read_json(os.path.join(workdir, "plan.json"))
        self.ctx = mp_context(self.dps)
        self.arc = arcs.load_arc(
            chartio.read_json(os.path.join(workdir, "arc.json")), self.ctx)
        self.s0 = self.ctx.real(plan["s0"])

    def run_pass(self, rec):
        ctx = self.ctx
        dps_before = mpmath.mp.dps
        chart = engine.extend_arc(self.arc, self.s0, n=self.n, K=self.K,
                                  D=self.D, ctx=ctx)
        residuals = []
        for i, sm in enumerate(self.sigma_maxes):
            with rec.item() as checks:
                if i == 0:
                    round_trip(chart, checks, rec)
                ts = [ctx.real(-0.1 + 0.2 * j / 6) for j in range(7)]
                ss = [ctx.real(sm) * (j + 1) / 4 for j in range(4)]
                res = engine.pde_residual(chart.phi, ts, ss).max_pde
                checks.limit(f"pde at sigma {sm}", res, RESIDUAL_TOL)
                residuals.append(res)
        if len(residuals) == len(self.sigma_maxes) and min(residuals) > 0:
            slope = float(np.polyfit(
                np.log([float(s) for s in self.sigma_maxes]),
                np.log(residuals), 1)[0])
        else:
            slope = float("nan")
        if not slope >= 2 * self.K - 1:
            rec.fail_pass(f"decay slope {slope:.2f} < {2 * self.K - 1}",
                          self.items_per_pass)
        dps_after = mpmath.mp.dps
        if dps_before != self.dps or dps_after != self.dps:
            rec.fail_pass(f"mp.dps {dps_before} -> {dps_after}, "
                          f"expected {self.dps}", self.items_per_pass)


class VerifyBatch(Workload):
    """24 low-order charts through extend, JSON, residual, oracle, mesh."""

    name = "verify-batch"
    K, D = 4, 16
    items_per_pass = 24
    sigma_max = 0.1          # `slagext residual` default
    circle_sigma = 0.05      # criterion 8
    circle_halfwidth = 0.05  # t-degree cap D - 2K = 8 limits the window
    resolution, directions = 8, 6

    def generate(self, rng, workdir):
        plan = []
        for i in range(self.items_per_pass):
            n = 2 + i % 3
            item = {"n": n, "branch": rng.randrange(n)}
            if i % 4 == 3:
                item["arc"] = "circle"
                item["s0"] = _dec(rng.uniform(0.0, 2 * math.pi))
            else:
                path = f"arc{i:02d}.json"
                _write(os.path.join(workdir, path),
                       _graph_doc(rng, 0.1, 0.1, self.D))
                item["arc"] = path
                item["s0"] = _dec(rng.uniform(-0.2, 0.2))
            plan.append(item)
        _write(os.path.join(workdir, "plan.json"), {"items": plan})

    def load(self, workdir):
        self.workdir = workdir
        plan = chartio.read_json(os.path.join(workdir, "plan.json"))
        self.items = []
        for item in plan["items"]:
            if item["arc"] == "circle":
                arc = arcs.unit_circle_arc(FLOAT64)
            else:
                arc = arcs.load_arc(
                    chartio.read_json(os.path.join(workdir, item["arc"])))
            self.items.append((arc, FLOAT64.real(item["s0"]), item["n"],
                               item["branch"], item["arc"] == "circle"))

    def run_pass(self, rec):
        mesh = os.path.join(self.workdir, "cloud.csv")
        for arc, s0, n, branch, circle in self.items:
            with rec.item() as checks:
                chart = engine.extend_arc(arc, s0, n=n, K=self.K, D=self.D,
                                          branch=branch)
                back = round_trip(chart, checks, rec)
                rep = oracles.chart_residual_report(back, self.sigma_max)
                for key in ("max_pde", "max_omega", "max_upsilon"):
                    checks.limit(key, rep[key], RESIDUAL_TOL)
                checks.limit("max_momentum", rep["max_momentum"],
                             MOMENTUM_TOL)
                if circle:
                    loc = oracles.unit_circle_residual(
                        n, back, self.circle_sigma,
                        t_halfwidth=self.circle_halfwidth,
                        tolerance=LOCUS_TOL)
                    checks.limit("unit-circle locus", loc.max_residual,
                                 LOCUS_TOL)
                chartio.export_mesh([back], "embedded", self.resolution,
                                    self.sigma_max, mesh,
                                    directions=self.directions)
                rec.count("chartio.export.bytes", os.path.getsize(mesh))


WORKLOADS = {w.name: w for w in (ExtendDeep, AtlasCircle, DecayMp40,
                                 VerifyBatch)}
