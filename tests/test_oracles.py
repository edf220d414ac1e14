"""Oracle suite tests: cones, circle locus, planes, branch separation."""
from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import chart_with_nan_in_f3
from slagext import oracles
from slagext.ambient import SlagResidual
from slagext.arcs import graph_arc, unit_circle_arc
from slagext.engine import ReducedChartMap, extend_arc
from slagext.errors import GateObstructionError
from slagext.oracles import (
    branch_separation,
    chart_residual_report,
    harvey_lawson_sample,
    plane_oracle,
    unit_circle_residual,
)
from slagext.precision import MPContext


def test_cone_oracle_flat_union():
    # c = 0 degenerates to a union of m flat sheets
    r = harvey_lawson_sample(2, 0.0, count=40)
    assert r.max_residual <= 1e-15 and r.passed
    r = harvey_lawson_sample(3, 0.0, count=40)
    assert r.max_residual <= 1e-11 and r.passed
    assert r.details["sectors"] == 3


def test_cone_oracle_curved_levels():
    for m in (2, 3, 4):
        r = harvey_lawson_sample(m, 1.0, count=60)
        assert r.passed and r.max_residual <= 1e-9
        assert r.details["sectors"] == m
    assert harvey_lawson_sample(2, -1.0, count=30).passed


def test_cone_oracle_rejects_small_m():
    with pytest.raises(ValueError):
        harvey_lawson_sample(1, 0.0)


def test_circle_locus_residuals():
    arc = unit_circle_arc()
    for n in (2, 3):
        ch = extend_arc(arc, 0.0, n=n, K=10, D=40, with_radius=False)
        r = unit_circle_residual(n, ch, 0.05)
        assert r.passed and r.max_residual <= 1e-8
        assert r.samples >= 500


def test_circle_locus_on_arc_itself():
    from slagext.ambient import chart_point

    ch = extend_arc(unit_circle_arc(), 0.0, n=3, K=4, D=32, with_radius=False)
    for t in (-0.1, 0.0, 0.07):
        p = chart_point(ch, t, 0.0, (1.0, 0.0, 0.0))
        zeta = p.z[1]
        assert zeta == 0j
        f2 = (p.z[0] * zeta ** 3).real
        assert f2 == 0.0
        f1 = sum(abs(zk) ** 2 for zk in p.z[1:]) - 3 * (abs(p.z[0]) ** 2 - 1)
        assert abs(f1) <= 1e-13


def test_circle_locus_decay_exponent():
    arc = unit_circle_arc()
    ch = extend_arc(arc, 0.0, n=2, K=2, D=12, with_radius=False)
    smaxes = [0.1, 0.15, 0.2]
    vals = [unit_circle_residual(2, ch, sm, samples=200).max_residual
            for sm in smaxes]
    slope = np.polyfit(np.log(smaxes), np.log(vals), 1)[0]
    assert slope >= 2 * ch.K


@pytest.mark.parametrize("K", [4, 6, 8])
def test_circle_locus_decays_at_the_first_omitted_order(K):
    """mp charts of the unit circle (s0 = 0.3, D = 8K, 6K + 12 digits) meet
    the locus F1 = |zeta|^2 - n(|w|^2 - 1) = 0, F2 = Re(w zeta^n) = 0 up
    to the first omitted term f_(K+1) sigma^(2K+2)/(2K+2)!: over t in
    [-0.05, 0.05], max(|F1|, |F2|) falls with slope 2K+2 in sigma, on every
    branch for n = 2, 3, 4. The t-cap term (0.05^(6K+1)) and the rounding
    lie below the smallest residual, so the slope is the order itself."""
    ctx = MPContext(6 * K + 12)
    sigmas = ("0.0125", "0.025", "0.05", "0.1")
    t, s = (np.array(v, dtype=object) for v in np.meshgrid(
        [ctx.real(j) / 40 for j in range(-2, 3)], list(map(ctx.real, sigmas)),
        indexing="ij"))
    real = np.frompyfunc(lambda x: x.real, 1, 1)
    arc = unit_circle_arc(ctx)  # one solve per n, shared by its branches
    for n in (2, 3, 4):
        for branch in range(n):
            chart = extend_arc(arc, ctx.real("0.3"), n, K, 8 * K,
                               branch=branch, ctx=ctx, with_radius=False)
            w, zeta = ReducedChartMap(chart, ctx).point(t, s)
            f1 = abs(zeta) ** 2 - n * (abs(w) ** 2 - 1)
            f2 = real(w * zeta ** n)
            worst = np.maximum(abs(f1), abs(f2)).max(axis=0)
            slope = np.polyfit(np.log(list(map(float, sigmas))),
                               np.log(worst.astype(float)), 1)[0]
            assert abs(slope - (2 * K + 2)) <= 0.1, (n, branch, slope)


def test_circle_locus_rejects_other_arcs():
    ch = extend_arc(graph_arc(["0", "0", "0.5"]), 0.0, n=2, K=2, D=12,
                    with_radius=False)
    with pytest.raises(ValueError):
        unit_circle_residual(2, ch, 0.05)


def test_plane_oracle_counts_and_residuals():
    for n in (2, 4):
        r = plane_oracle(n, trials=6)
        assert r.passed
        assert r.max_residual <= 1e-12
        assert all(c == n for c in r.details["line_plane_counts"])


def test_nan_residual_fails_cone_and_plane_oracles(monkeypatch):
    # a NaN residual wins the maximum instead of being dropped by max()
    nan = SlagResidual(math.nan, math.nan, math.nan)
    monkeypatch.setattr(oracles, "slag_residual", lambda frame: nan)
    for r in (harvey_lawson_sample(2, 1.0, count=8),
              plane_oracle(2, trials=2)):
        assert math.isnan(r.max_residual) and not r.passed, r.name


def test_branch_separation_parabola():
    r = branch_separation(graph_arc(["0", "0", "0.5"]), 3, K=3)
    assert r.passed
    assert r.max_residual <= 1e-13
    slopes = r.details["fitted_slopes"]
    assert set(slopes) == {"0-1", "0-2", "1-2"}
    assert all(v > 0.1 for v in slopes.values())


def test_branch_separation_flat_law():
    # flat branches are planes; separation is exactly 2 sin(pi (k-j) / 2n)
    r2 = branch_separation(graph_arc(["0"]), 2, K=2)
    assert abs(r2.details["fitted_slopes"]["0-1"] - math.sqrt(2.0)) < 1e-12
    r3 = branch_separation(graph_arc(["0"]), 3, K=2)
    s = r3.details["fitted_slopes"]
    assert abs(s["0-1"] - 1.0) < 1e-12
    assert abs(s["0-2"] - math.sqrt(3.0)) < 1e-12
    assert abs(s["1-2"] - 1.0) < 1e-12


@pytest.mark.parametrize("n", [3, 4])
def test_branch_separation_builds_each_cloud_once(monkeypatch, n):
    calls = []
    real = oracles.chart_point

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracles, "chart_point", counted)
    r = branch_separation(graph_arc(["0", "0", "0.5"]), n, K=3,
                          sigma_steps=5, t_points=9)
    assert r.passed
    # one array call per (branch, sigma row incl. sigma = 0), over all t
    assert len(calls) == n * (5 + 1)


def test_branch_separation_respects_gate():
    with pytest.raises(GateObstructionError):
        branch_separation(unit_circle_arc(), 3, K=2)


def test_chart_residual_report_fields():
    ch = extend_arc(unit_circle_arc(), 0.0, n=2, K=4, D=16, with_radius=False)
    rep = chart_residual_report(ch, 0.05, nt=5, ns=3)
    for key in ("n", "K", "D", "branch", "max_pde", "max_omega",
                "max_upsilon", "max_momentum", "grid", "pde_samples"):
        assert key in rep
    assert rep["max_pde"] > 0.0
    assert rep["max_momentum"] <= 1e-14
    assert rep["max_omega"] <= 1e-6


@pytest.mark.parametrize("n, arc, s0, branch", [
    (2, graph_arc(["0", "0", "0.5"]), 0.0, 0),
    (3, graph_arc(["0", "0", "0.5", "0.1"]), 0.1, 2),
    (4, graph_arc(["0", "0", "-0.3", "0.7"]), -0.2, 1),
    (2, unit_circle_arc(), 1.3, 1),
])
def test_chart_report_symplectic_residual_is_rounding(n, arc, s0, branch):
    # the sheet is a gradient graph, so omega vanishes on it identically;
    # exact tangent frames leave only rounding at every sampled point
    ch = extend_arc(arc, s0, n=n, K=4, D=16, branch=branch,
                    with_radius=False)
    assert chart_residual_report(ch, 0.1)["max_omega"] <= 1e-15


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_chart_report_keeps_nan_in_every_maximum():
    rep = chart_residual_report(chart_with_nan_in_f3(), 0.1)
    for key in ("max_pde", "max_omega", "max_upsilon", "max_momentum"):
        assert math.isnan(rep[key]), key

