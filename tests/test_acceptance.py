"""Acceptance gate: thirteen numbered criteria, one summary line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they pass. Tolerances are fixed here and are not to be loosened;
a regression that trips one of these is a real regression.
"""
from __future__ import annotations

import cmath
import json
import math
import random

import numpy as np

from conftest import random_flat_potential
from slagext.ambient import (
    AmbientPoint,
    apply_motion_F,
    chart_frame,
    chart_point,
    eta_coframe,
    group_motion,
    j0_coframe,
    linear_map_jacobian,
    momentum_so_n,
    plane_P,
    pullback,
    slag_residual,
    sphere_points,
    twist_C,
)
from slagext.arcs import (
    existence_gate,
    graph_arc,
    normalize_at,
    rotation_number,
    unit_circle_arc,
)
from slagext.chartio import deserialize_chart, serialize_chart
from slagext.engine import (
    Chart,
    build_atlas,
    compute_f1,
    extend_arc,
    extend_series,
    gt_hypotheses_check,
    linearity_probe,
    overlap_agreement,
    pde_residual,
)
from slagext.oracles import (
    branch_separation,
    harvey_lawson_sample,
    unit_circle_residual,
)
from slagext.precision import mp_context
from slagext.series import (
    ComplexSeries,
    complex_int_pow,
    cs_mul,
    poly_derivative,
    poly_from,
    poly_one,
)

PARABOLA = ["0", "0", "0.5"]

# brute-force symbolic expansion of the order-sigma^2 equation for
# f0 = t^3/6, n = 2 (scripts/derive_f2_oracle.py), frozen
F2_PARABOLA = [0.0, -0.375, 0.0, 0.9375, 0.0, -1.6171875, 0.0, 2.37890625,
               0.0, -3.2021484375, 0.0, 4.07373046875, 0.0,
               -4.984588623046875]


def _line(num, ok, detail):
    print(f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_f1_closed_form():
    rng = random.Random(101)
    worst = 0.0
    for _ in range(20):
        f0 = random_flat_potential(rng, 24)
        for n in range(2, 7):
            f1 = compute_f1(f0, n)
            f0pp = poly_from(
                list(poly_derivative(poly_derivative(f0)).coeffs), f1.cap)
            lhs = cs_mul(
                complex_int_pow(ComplexSeries(poly_one(f1.cap), f1), n),
                ComplexSeries(poly_one(f1.cap), f0pp))
            worst = max(worst, max(abs(c) for c in lhs.im.coeffs))
    _line(1, worst <= 1e-13,
          f"f1 phase identity, n=2..6, 20 draws: max residual {worst:.3e}")


def test_criterion_02_gt_hypotheses():
    f0 = poly_from([0.0, 0.0, 0.0, 1.0 / 6.0], 24)
    worst_partial = 0.0
    worst_id = 0.0
    min_indicial = math.inf
    for n in range(2, 9):
        rep = gt_hypotheses_check(f0, n)
        assert rep.passed
        worst_partial = max(worst_partial,
                            max(abs(p - e) for p, e in
                                zip(rep.partials, rep.expected)))
        worst_id = max(worst_id, rep.cond1_max, rep.cond2_max)
        min_indicial = min(min_indicial, rep.cond4_min)
    ok = worst_partial <= 1e-7 and worst_id <= 1e-9 and min_indicial > 0
    _line(2, ok,
          f"normal form hypotheses, n=2..8: partial err {worst_partial:.2e}, "
          f"identity {worst_id:.2e}, indicial min {min_indicial:.0f}")


def test_criterion_03_flat_case_exact():
    ch = extend_arc(graph_arc(["0"]), 0.0, n=3, K=6, D=20)
    flat = all(c == 0.0 for f in ch.phi.terms for c in f.coeffs)
    res = slag_residual(np.transpose(plane_P(0.0, 3).basis))
    ok = flat and res.omega_res == 0.0 and res.upsilon_res == 0.0
    _line(3, ok,
          f"flat potential stays flat exactly; plane residuals "
          f"({res.omega_res}, {res.upsilon_res})")


def test_criterion_04_recursion_linearity():
    rng = random.Random(104)
    worst = 0.0
    for n in (2, 3, 5):
        f0 = random_flat_potential(rng, 16)
        for k in range(1, 6):
            worst = max(worst, linearity_probe(f0, n, k))
    _line(4, worst <= 1e-11,
          f"order-(2k) equation linear in f_(k+1), k=1..5: max {worst:.3e}")


def test_criterion_05_f2_independent_oracle():
    exp = extend_series(poly_from([0.0, 0.0, 0.0, 1.0 / 6.0], 18), 2, 2)
    f2 = exp.terms[2]
    worst = max(abs(got - want)
                for got, want in zip(f2.coeffs, F2_PARABOLA))
    _line(5, worst <= 1e-12,
          f"f2 vs symbolic brute-force expansion: max coeff err {worst:.3e}")


def test_criterion_06_pde_residual_decay():
    ctx = mp_context(40)
    arc = graph_arc(PARABOLA, ctx=ctx)
    smaxes = [0.025, 0.05, 0.1]
    slopes = {}
    for K in (4, 6, 8):
        na = normalize_at(arc, ctx.real(0), 2, cap=2 * K + 32, ctx=ctx)
        exp = extend_series(na.f0, 2, K)
        vals = []
        for sm in smaxes:
            ts = [ctx.real(-0.1 + 0.2 * j / 6) for j in range(7)]
            ss = [ctx.real(sm * (j + 1) / 4) for j in range(4)]
            vals.append(pde_residual(exp, ts, ss).max_pde)
        slopes[K] = float(np.polyfit(np.log(smaxes), np.log(vals), 1)[0])
    ok = all(slopes[K] >= 2 * K - 1 for K in slopes)
    _line(6, ok,
          "residual decay exponents " +
          ", ".join(f"K={K}: {s:.2f} (need {2 * K - 1})"
                    for K, s in slopes.items()))


def test_criterion_07_harvey_lawson_oracle():
    worst = 0.0
    for m in (2, 3, 4):
        for c in (0.0, 1.0):
            res = harvey_lawson_sample(m, c, count=200, tolerance=1e-9)
            assert res.passed, (m, c, res.max_residual)
            worst = max(worst, res.max_residual)
    _line(7, worst <= 1e-9,
          f"cone pullback residuals, m=2..4, c in {{0,1}}, 200 samples: "
          f"max {worst:.3e}")


def test_criterion_08_unit_circle_locus():
    worst_05 = 0.0
    worst_025 = 0.0
    for n in (2, 3):
        ch = extend_arc(unit_circle_arc(), 0.0, n=n, K=10, D=40,
                        with_radius=False)
        worst_05 = max(worst_05, unit_circle_residual(
            n, ch, 0.05, samples=500).max_residual)
        worst_025 = max(worst_025, unit_circle_residual(
            n, ch, 0.025, samples=500).max_residual)
    ok = worst_05 <= 1e-8 and worst_025 <= 1e-10
    _line(8, ok,
          f"circle implicit equations, n=2,3, K=10: {worst_05:.3e} at "
          f"sigma 0.05, {worst_025:.3e} at 0.025")


def test_criterion_09_n_uniqueness_geometry():
    sep = branch_separation(graph_arc(PARABOLA), 3, K=3)
    slopes = sep.details["fitted_slopes"]
    sep_ok = (sep.passed and len(slopes) == 3
              and all(v > 0 for v in slopes.values())
              and sep.max_residual <= 1e-13)

    arc = unit_circle_arc()
    spacing = 2 * math.pi / 12
    sups = {}
    for K in (10, 12):
        charts = build_atlas(arc, 2, K, 4 * K, spacing)
        assert len(charts) == 12
        worst = 0.0
        for i in range(len(charts)):
            v = overlap_agreement(charts[i], charts[(i + 1) % 12], 0.05,
                                  t_halfwidth=0.35, t_halfwidth_other=0.35)
            worst = max(worst, v)
        sups[K] = worst
    atlas_ok = sups[10] <= 1e-6 and sups[12] < sups[10]
    _line(9, sep_ok and atlas_ok,
          f"3 branch pairs separated (coincidence {sep.max_residual:.1e}); "
          f"12-chart overlap sup {sups[10]:.3e} at K=10, {sups[12]:.3e} "
          f"at K=12")


def test_criterion_10_topological_gates():
    ccw = unit_circle_arc()
    cw = unit_circle_arc(orientation=-1)
    g3 = existence_gate(ccw, 3)
    g2 = existence_gate(ccw, 2)
    ok = (not g3.ok and g3.shift == 2 and g2.ok
          and rotation_number(ccw) == 1 and rotation_number(cw) == -1)
    _line(10, ok,
          f"circle gate: n=3 obstructed (shift {g3.shift}), n=2 ok, "
          f"winding +1/-1 by orientation")


def test_criterion_11_momentum_and_invariance():
    ch = extend_arc(graph_arc(PARABOLA), 0.0, n=3, K=4, D=16)
    dirs = sphere_points(3, 10)
    worst_mu = 0.0
    count = 0
    for i in range(10):
        t = -0.1 + 0.2 * i / 9
        for j in range(10):
            sigma = 0.05 * (j + 1) / 10
            for u in dirs:
                mu = momentum_so_n(chart_point(ch, t, sigma, u))
                worst_mu = max(worst_mu, float(np.max(np.abs(mu))))
                count += 1
    assert count == 1000

    chart = extend_arc(unit_circle_arc(), 0.0, n=2, K=6, D=24)

    def moved(frame):
        # the motion's linear part, group_motion with a = 0, on each column
        return np.column_stack([
            group_motion(AmbientPoint(tuple(v)), 0, 1.1, 2).z
            for v in frame.T])

    worst_inv = 0.0
    for at in ([0.05, 0.03, 0.4], [-0.08, 0.02, 2.1]):
        frame = chart_frame(chart, at[0], at[1], at[2:])
        r1 = slag_residual(frame)
        r2 = slag_residual(moved(frame))
        worst_inv = max(worst_inv, abs(r1.omega_res - r2.omega_res),
                        abs(r1.upsilon_res - r2.upsilon_res))
    ok = worst_mu <= 1e-14 and worst_inv <= 1e-12
    _line(11, ok,
          f"momentum over 1000 chart points: {worst_mu:.3e}; motion "
          f"invariance of residuals: {worst_inv:.3e}")


def test_criterion_12_j0_layer_identities():
    rng = random.Random(112)
    worst = 0.0
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z = complex(rng.uniform(0.2, 1.2), rng.uniform(-1, 1))

        cw, cz = twist_C(w, z, n)
        jac = linear_map_jacobian(1.0 + 0j, cmath.exp(1j * math.pi / n))
        o1_img, o2_img = j0_coframe(cw, cz, n)
        o1, o2 = j0_coframe(w, z, n)
        worst = max(worst,
                    float(np.max(np.abs(pullback(o1_img, jac) - np.conj(o2)))),
                    float(np.max(np.abs(pullback(o2_img, jac) - np.conj(o1)))))

        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1))
        fw, fz = apply_motion_F(a, b, n, w, z)
        jac = linear_map_jacobian((b.conjugate() ** n) / (abs(b) ** (n - 1)),
                                  b)
        e1_img, e2_img = eta_coframe(fw, fz, n)
        e1, e2 = eta_coframe(w, z, n)
        worst = max(worst,
                    float(np.max(np.abs(pullback(e1_img, jac) - e1))),
                    float(np.max(np.abs(pullback(e2_img, jac) - e2))))
    _line(12, worst <= 1e-12,
          f"twist antilinearity and eta invariance, 100 points: "
          f"max {worst:.3e}")


def test_criterion_13_round_trip_io():
    from slagext.arcs import Frame

    rng = random.Random(113)
    exact = True
    for _ in range(50):
        n = rng.randrange(2, 6)
        K = rng.randrange(1, 5)
        ch = Chart(
            n=n, branch=rng.randrange(n),
            frame=Frame(a=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                        theta=rng.uniform(0.0, 6.28)),
            phi=extend_series(
                random_flat_potential(rng, 2 * K + rng.randrange(0, 9)),
                n, K),
            center_param=rng.uniform(-1.0, 1.0),
        )
        back = deserialize_chart(json.loads(json.dumps(serialize_chart(ch))))
        exact = exact and all(
            fa.coeffs == fb.coeffs
            for fa, fb in zip(ch.phi.terms, back.phi.terms))
        exact = (exact and back.frame.a == ch.frame.a
                 and back.frame.theta == ch.frame.theta
                 and back.branch == ch.branch and back.n == ch.n)
    _line(13, exact, "serialize/deserialize on 50 random charts: exact")
