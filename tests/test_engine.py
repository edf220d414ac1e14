"""Tests of the extension recursion, its oracles, and chart assembly."""
from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_flat_potential
from slagext import engine
from slagext.arcs import existence_gate, graph_arc, unit_circle_arc
from slagext.engine import (
    Chart,
    PDESlots,
    ReducedChartMap,
    _gauss_newton_project,
    build_atlas,
    compute_R,
    compute_f1,
    estimate_radius,
    extend_arc,
    extend_series,
    gt_hypotheses_check,
    linearity_probe,
    overlap_agreement,
    pde_lhs_value,
    pde_residual,
    regular_pde_even_series,
)
from slagext.errors import (
    CoverageError,
    DegreeExhaustionError,
    GateObstructionError,
    NonFiniteError,
)
from slagext.precision import FLOAT64, MPContext, mp_context
from slagext.series import (
    ComplexSeries,
    EvenSeries,
    SigmaExpansion,
    TaylorPoly,
    complex_int_pow,
    cs_mul,
    even_add,
    even_int_pow,
    even_mul,
    even_shift,
    poly_derivative,
    poly_eval,
    poly_from,
    poly_mul,
    poly_one,
    poly_reciprocal,
    poly_truncate,
    poly_zero,
)

PARABOLA_F0 = poly_from([0.0, 0.0, 0.0, 1.0 / 6.0], 18)

# f1 for f0 = t^3/6, n = 2 is -tan(arctan(t)/2) = -(sqrt(1+t^2)-1)/t
F1_PARABOLA = [0.0, -0.5, 0.0, 0.125, 0.0, -0.0625, 0.0, 5.0 / 128.0, 0.0,
               -7.0 / 256.0]

# brute-force symbolic expansion of the graph equation to sigma^2
# (scripts/derive_f2_oracle.py), coefficients of f2 for f0 = t^3/6, n = 2
F2_PARABOLA = [0.0, -0.375, 0.0, 0.9375, 0.0, -1.6171875, 0.0, 2.37890625,
               0.0, -3.2021484375, 0.0, 4.07373046875, 0.0,
               -4.984588623046875]
F2_VALUES = {
    0.05: -0.018633316018807607759,
    0.1: -0.036578437146278731713,
    0.2: -0.067988609967767888205,
}


def test_f1_definition_matches_implicit_equation():
    rng = random.Random(71)
    for n in range(2, 7):
        f0 = random_flat_potential(rng, 20)
        f1 = compute_f1(f0, n)
        cap = f1.cap
        f0pp = poly_from(list(poly_derivative(poly_derivative(f0)).coeffs), cap)
        # Im((1+i f1)^n (1+i f0'')) must vanish coefficientwise
        lhs = cs_mul(complex_int_pow(ComplexSeries(poly_one(cap), f1), n),
                     ComplexSeries(poly_one(cap), f0pp))
        assert max(abs(c) for c in lhs.im.coeffs) <= 1e-13


def test_f1_parabola_frozen_coefficients():
    f1 = compute_f1(PARABOLA_F0, 2)
    for got, want in zip(f1.coeffs, F1_PARABOLA):
        assert abs(got - want) < 1e-15


def test_R_closed_form_parabola():
    # For f0'' = t, n = 2: R = 2(1+t^2)/(1+sqrt(1+t^2))
    R = compute_R(poly_from([0.0, 0.0, 0.0, 1.0 / 6.0], 40), 2)
    for t in (0.0, 0.1, 0.3, 0.45):
        closed = 2.0 * (1.0 + t * t) / (1.0 + math.sqrt(1.0 + t * t))
        assert abs(poly_eval(R, t) - closed) < 1e-14
    assert abs(poly_eval(R, 0.3) - 1.0665202104722216) < 1e-15
    # low-order coefficients of the closed form
    for got, want in zip(R.coeffs[:6], [1.0, 0.0, 0.75, 0.0, -0.125, 0.0]):
        assert abs(got - want) < 1e-15


def test_f2_matches_symbolic_oracle():
    exp = extend_series(PARABOLA_F0, n=2, K=2)
    f2 = exp.terms[2]
    for got, want in zip(f2.coeffs, F2_PARABOLA):
        assert abs(got - want) <= 1e-12
    # pointwise values need a deeper tail than the frozen coefficient list
    deep = extend_series(poly_from([0.0, 0.0, 0.0, 1.0 / 6.0], 36), n=2, K=2)
    for t, want in F2_VALUES.items():
        assert abs(poly_eval(deep.terms[2], t) - want) < 1e-12


def test_solved_slots_vanish():
    rng = random.Random(5)
    for n in (2, 3, 5):
        f0 = random_flat_potential(rng, 18)
        exp = extend_series(f0, n=n, K=4)
        state = PDESlots(n)
        for k in range(exp.K):
            e_k = regular_pde_even_series(exp.terms, n, k, exp.cap - 2, state)
            assert max(abs(c) for c in e_k.coeffs) <= 1e-13


@pytest.mark.parametrize("k, state, message", [
    pytest.param(-1, None, "k must be >= 0", id="negative-k"),
    pytest.param(0, PDESlots(3), "another n", id="state-for-other-n"),
])
def test_pde_slot_rejects_bad_requests(k, state, message):
    exp = extend_series(PARABOLA_F0, n=2, K=2)
    with pytest.raises(ValueError, match=message):
        regular_pde_even_series(exp.terms, 2, k, exp.cap - 2, state)


def test_flat_potential_stays_flat():
    f0 = poly_from([0.0], 12)
    exp = extend_series(f0, n=4, K=5)
    for term in exp.terms:
        assert all(c == 0.0 for c in term.coeffs)
    assert pde_lhs_value(exp, 0.2, 0.3) == 0.0


def _whole_pde_factors(terms, n, slots, cap):
    """Reference factors of the PDE series built whole by even_mul and
    repeated squaring: W = 1 + i q and
    I = (1 + i phi_tt)(1 + i phi_ss) + phi_st^2."""
    zp = poly_zero(cap, like=terms[0].coeffs[0] * 0)
    one = poly_one(cap, like=terms[0].coeffs[0] * 0 + 1)

    def part(j, derivs, fact):
        if j >= len(terms):
            return zp
        f = terms[j]
        for _ in range(derivs):
            f = poly_derivative(f)
        f = poly_truncate(f, cap)
        return TaylorPoly(tuple(c / fact for c in f.coeffs))

    def even(re, im):
        return EvenSeries(tuple(map(ComplexSeries, re, im)))

    fac = math.factorial
    unit, zeros = [one] + [zp] * (slots - 1), [zp] * slots
    w = even(unit, [part(j + 1, 0, fac(2 * j + 1)) for j in range(slots)])
    pt = even(unit, [part(j, 2, fac(2 * j)) for j in range(slots)])
    pb = even(unit, [part(j + 1, 0, fac(2 * j)) for j in range(slots)])
    o = even([part(j + 1, 1, fac(2 * j + 1)) for j in range(slots)], zeros)
    return w, even_add(even_mul(pt, pb), even_shift(even_mul(o, o)))


def _whole_pde_series(terms, n, slots, cap):
    """Reference PDE series (1 + i q)^(n-1) I, built whole."""
    w, inner = _whole_pde_factors(terms, n, slots, cap)
    return even_mul(even_int_pow(w, n - 1), inner)


def _rebuild_extend(f0, n, K):
    """Reference recursion: rebuild the whole PDE series for every k."""
    D = f0.cap
    f1 = compute_f1(f0, n)
    one = poly_one(f1.cap, like=f0.coeffs[0] * 0 + 1)
    pref = poly_mul(one + f1 * f1, poly_reciprocal(compute_R(f0, n, f1=f1)))
    terms = [f0, f1]
    for k in range(1, K):
        cap = D - 2 * (k + 1)
        e_k = _whole_pde_series(terms, n, k + 1, cap).slots[k].im
        step = poly_mul(e_k, poly_truncate(pref, cap))
        scale = -math.factorial(2 * k + 1) / (2 * k + n)
        terms.append(TaylorPoly(tuple(c * scale for c in step.coeffs)))
    return [poly_truncate(f, D - 2 * K) for f in terms]


def _worst_relative(got, want):
    worst = 0.0
    for a, b in zip(got, want):
        size = max(abs(c) for c in b.coeffs)
        diff = max(abs(x - y) for x, y in zip(a.coeffs, b.coeffs))
        worst = max(worst, float(diff / size) if size else float(diff))
    return worst


def test_online_recursion_matches_rebuild_float():
    rng = random.Random(29)
    for n in (2, 3, 4, 5):
        f0 = random_flat_potential(rng, 48)
        want = _rebuild_extend(f0, n, 12)
        got = extend_series(f0, n, 12).terms
        assert len(got) == len(want) == 13
        assert _worst_relative(got, want) <= 1e-15


def test_online_recursion_matches_rebuild_mp40():
    ctx = mp_context(40)
    rng = random.Random(31)
    f0 = poly_from([ctx.real(0)] * 3 + [
        ctx.real(rng.uniform(-1.0, 1.0)) / 5 ** j for j in range(1, 46)
    ], 48)
    want = _rebuild_extend(f0, 2, 8)
    got = extend_series(f0, 2, 8).terms
    assert _worst_relative(got, want) <= 1e-36


def test_mp_residual_ignores_other_contexts():
    # an mp40 chart computes at 40 digits whatever other contexts exist and
    # whatever precision mpmath.mp is left at
    ctx = MPContext(40)
    ch = extend_arc(graph_arc(["0", "0", "0.5", "0.1"], ctx=ctx),
                    ctx.real("0.1"), n=2, K=6, D=24, ctx=ctx)
    ts = [ctx.real(j) / 20 for j in range(-3, 4)]
    ss = [ctx.real(j) / 80 for j in range(1, 5)]
    before = pde_residual(ch.phi, ts, ss).max_pde
    dps = mpmath.mp.dps
    try:
        MPContext(20)
        mpmath.mp.dps = 15
        after = pde_residual(ch.phi, ts, ss).max_pde
    finally:
        mpmath.mp.dps = dps
    assert after == before


def _online_pde(terms, n, cap):
    """Feed the terms to one PDESlots as the recursion does: every call
    brings the next term and asks for the one slot it cannot close yet,
    and the last call closes slot K - 1. Returns the state and
    Im E_0..E_(K-1), read back from its finished P and I slots."""
    K = len(terms) - 1
    state = PDESlots(n)
    for k in range(1, K + 1):
        regular_pde_even_series(terms[:k + 1], n, min(k, K - 1), cap, state)
    return state, [regular_pde_even_series(terms, n, k, cap, state)
                   for k in range(K)]


@given(st.integers(2, 7), st.integers(1, 6),
       st.lists(st.integers(-9, 9), min_size=20, max_size=20))
@settings(max_examples=20, deadline=None)
def test_online_slots_exact_over_rationals(n, K, nums):
    D = 2 * K + 8
    f0 = poly_from([Fraction(0)] * 3 + [
        Fraction(m, 5 ** j) for j, m in enumerate(nums[:D - 2], start=1)
    ], D)
    exp = extend_series(f0, n, K)
    cap = exp.cap - 2
    state, online = _online_pde(exp.terms, n, cap)
    # Miller's recurrence reproduces the repeated-squaring power exactly
    one = poly_one(cap, like=Fraction(1))
    zp = poly_zero(cap, like=Fraction(0))
    q = [TaylorPoly(tuple(c / math.factorial(2 * j + 1) for c in
                          poly_truncate(exp.terms[j + 1], cap).coeffs))
         for j in range(K)]
    w = EvenSeries((ComplexSeries(one, q[0]),)
                   + tuple(ComplexSeries(zp, x) for x in q[1:]))
    assert tuple(state.p) == even_int_pow(w, n - 1).slots
    # the closed I slots are the whole-series factor exactly
    assert tuple(state.i) == _whole_pde_factors(exp.terms, n, K, cap)[1].slots
    # reusing the running slots changes nothing, and every solved slot
    # vanishes exactly
    fresh = [regular_pde_even_series(exp.terms, n, k, cap) for k in range(K)]
    whole = [s.im for s in _whole_pde_series(exp.terms, n, K, cap).slots]
    assert online == fresh == whole
    assert all(c == 0 for e_k in online for c in e_k.coeffs)


@given(st.integers(2, 7), st.integers(1, 6),
       st.lists(st.floats(-1.0, 1.0), min_size=20, max_size=20))
@settings(max_examples=60, deadline=None)
def test_solved_slots_vanish_property(n, K, us):
    D = 2 * K + 8
    f0 = poly_from([0.0] * 3 + [u * 0.2 ** j for j, u in
                                enumerate(us[:D - 2], start=1)], D)
    exp = extend_series(f0, n, K)
    state = PDESlots(n)
    scale = max(1.0, max(abs(c) for f in exp.terms for c in f.coeffs))
    for k in range(K):
        e_k = regular_pde_even_series(exp.terms, n, k, exp.cap - 2, state)
        assert max(abs(c) for c in e_k.coeffs) <= 1e-13 * scale


def test_linearity_of_order_k_equation():
    rng = random.Random(19)
    for n in (2, 3, 5):
        f0 = random_flat_potential(rng, 20)
        for k in range(1, 6):
            assert linearity_probe(f0, n, k) <= 1e-11


def test_degree_budget_guard():
    with pytest.raises(DegreeExhaustionError):
        extend_series(PARABOLA_F0, n=2, K=10)


def test_residual_decay_rate_float():
    arc = graph_arc(["0", "0", "0.5"])
    ts = [(-0.15 + 0.3 * i / 10) for i in range(11)]
    smaxes = [0.025, 0.05, 0.1]
    for K in (3, 4):
        ch = extend_arc(arc, 0.0, n=2, K=K, D=2 * K + 16, with_radius=False)
        worsts = []
        for sm in smaxes:
            sig = [sm * j / 8 for j in range(1, 9)]
            worsts.append(pde_residual(ch.phi, ts, sig).max_pde)
        slope = np.polyfit(np.log(smaxes), np.log(worsts), 1)[0]
        assert slope >= 2 * K - 1
        # the measured law carries the sigma^{n-1} prefactor as well
        assert slope == pytest.approx(2 * K + 1, abs=0.3)


def test_normal_form_hypotheses_small_n():
    for n in (2, 3, 5):
        rep = gt_hypotheses_check(PARABOLA_F0, n)
        assert rep.cond1_max <= 1e-9
        assert rep.cond2_max <= 1e-9
        for got, want in zip(rep.partials, rep.expected):
            assert abs(got - want) <= 1e-7
        assert rep.expected == (1.0, n + 3.0, 2.0 * n)
        assert rep.cond4_min > 0
        # k^2 + (n+3)k + 2n is minimized at k = 1
        assert rep.cond4_min == 1 + (n + 3) + 2 * n
        assert rep.passed


def test_radius_estimates():
    circle = extend_arc(unit_circle_arc(), 0.0, n=2, K=10, D=40)
    est = circle.radius
    assert 1.0 <= est.rho_sigma <= 3.0
    assert est.fit_quality >= 0.9
    assert 0.0 < est.C and 0.0 < est.M < math.inf

    flat = extend_arc(graph_arc(["0"]), 0.0, n=3, K=6, D=20)
    assert flat.radius.rho_sigma == math.inf
    assert flat.radius.M == math.inf
    assert flat.radius.C == 0.0

    # residual is far smaller well inside the estimated radius than near it
    ts = [(-0.1 + 0.2 * i / 8) for i in range(9)]
    res = {}
    for frac in (0.5, 0.9):
        s = frac * est.rho_sigma
        res[frac] = pde_residual(circle.phi, ts,
                                 [s * j / 6 for j in range(1, 7)]).max_pde
    assert res[0.5] < 1e-4 < res[0.9]


def test_extend_arc_chart_contents():
    arc = unit_circle_arc()
    ch = extend_arc(arc, 0.3, n=3, K=4, D=16, branch=2)
    assert isinstance(ch, Chart)
    assert ch.n == 3 and ch.branch == 2
    assert ch.K == 4 and ch.D == 16
    assert ch.center_param == 0.3
    # base-point independence of the circle potential
    other = extend_arc(arc, 1.1, n=3, K=4, D=16, branch=2)
    for a, b in zip(ch.phi.terms, other.phi.terms):
        for x, y in zip(a.coeffs, b.coeffs):
            assert abs(x - y) < 1e-10


def test_atlas_construction_and_gate():
    arc = unit_circle_arc()
    charts = build_atlas(arc, n=2, K=4, D=16, spacing=2 * math.pi / 12)
    assert len(charts) == 12
    assert len({c.branch for c in charts}) == 1
    with pytest.raises(GateObstructionError):
        build_atlas(arc, n=3, K=4, D=16, spacing=2 * math.pi / 12)
    # open arcs are never gated
    parab = graph_arc(["0", "0", "0.5"])
    assert existence_gate(parab, 3).ok
    charts = build_atlas(parab, n=3, K=4, D=16, spacing=0.5)
    assert len(charts) >= 4


def test_atlas_rejects_branch_outside_range():
    for branch in (2, 7, -1):
        with pytest.raises(ValueError, match=r"branch must lie in \[0, n\)"):
            build_atlas(unit_circle_arc(), 2, 4, 16, 0.5, branch=branch)


def test_overlap_rejects_nonpositive_sigma():
    arc = unit_circle_arc()
    c1 = extend_arc(arc, 0.0, n=2, K=4, D=16, with_radius=False)
    c2 = extend_arc(arc, 0.5, n=2, K=4, D=16, with_radius=False)
    for sigma_max in (0.0, -0.05, math.nan):
        with pytest.raises(ValueError, match="sigma_max must be positive"):
            overlap_agreement(c1, c2, sigma_max)


def test_overlap_identical_and_adjacent():
    arc = unit_circle_arc()
    spacing = 2 * math.pi / 12
    w = 0.75 * spacing
    c1 = extend_arc(arc, 0.0, n=2, K=10, D=40, with_radius=False)
    assert overlap_agreement(c1, c1, 0.05, samples=9) == 0.0
    c2 = extend_arc(arc, spacing, n=2, K=10, D=40, with_radius=False)
    v10 = overlap_agreement(c1, c2, 0.05, samples=24, t_halfwidth=w,
                            t_halfwidth_other=w)
    assert 0.0 < v10 <= 1e-9


def test_open_arc_atlas_agrees_across_tangent_sign_change():
    # the tangent angle of y = x^2/2 changes sign at the middle of the
    # domain, where the frame angle wraps and the branch index must follow
    charts = build_atlas(graph_arc(["0", "0", "0.5"]), n=3, K=6, D=24,
                         spacing=0.5)
    for c1, c2 in zip(charts, charts[1:]):
        sup = overlap_agreement(c1, c2, 0.04, t_halfwidth=0.375,
                                t_halfwidth_other=0.375)
        assert sup <= 1e-6
    assert [c.branch for c in charts] == [0, 0, 1, 1]


def test_overlap_distinct_branches_separated():
    arc = unit_circle_arc()
    c0 = extend_arc(arc, 0.0, n=2, K=6, D=24, branch=0)
    c1 = extend_arc(arc, 0.0, n=2, K=6, D=24, branch=1)
    v = overlap_agreement(c0, c1, 0.05, samples=16)
    assert v >= 0.01


def test_overlap_in_mp_context():
    ctx = mp_context(30)
    circle = unit_circle_arc(ctx)
    c = extend_arc(circle, ctx.real(0), n=2, K=4, D=16, ctx=ctx,
                   with_radius=False)
    # 16 samples lie off the seed grid, so Gauss-Newton has to converge;
    # it reaches the exact foot in mp30 but not in float64 (6.9e-18)
    assert overlap_agreement(c, c, 0.05, samples=16, ctx=ctx) == 0.0
    kw = dict(t_halfwidth=0.75, t_halfwidth_other=0.75)
    sups = []
    for arc, s1, run_ctx in ((unit_circle_arc(), 1.0, FLOAT64),
                             (circle, ctx.real(1), ctx)):
        c1, c2 = (extend_arc(arc, s, n=2, K=6, D=24, ctx=run_ctx,
                             with_radius=False) for s in (s1 * 0, s1))
        sups.append(overlap_agreement(c1, c2, 0.05, ctx=run_ctx, **kw))
    assert sups[0] > 1e-4
    assert abs(sups[1] - sups[0]) <= 1e-12 * sups[0]


def test_reduced_map_of_mp_chart_is_float64():
    ctx = mp_context(30)
    ch = extend_arc(unit_circle_arc(ctx), ctx.real("0.4"), n=3, K=4, D=16,
                    ctx=ctx, with_radius=False)
    m = ch.reduced_map
    T, S = np.meshgrid(np.linspace(-0.2, 0.2, 5), np.linspace(-0.05, 0.05, 3),
                       indexing="ij")
    W, Z = m.point(T, S)
    assert W.dtype == Z.dtype == np.complex128
    eps = np.finfo(float).eps
    exact = ReducedChartMap(ch, ctx)
    for idx in np.ndindex(T.shape):
        w, z = m.point(float(T[idx]), float(S[idx]))
        assert type(w) is complex and type(z) is complex
        assert abs(W[idx] - w) <= 4 * eps * abs(w)
        assert abs(Z[idx] - z) <= 4 * eps * abs(z)
        we, ze = exact.point(ctx.real(T[idx]), ctx.real(S[idx]))
        assert abs(w - complex(we)) <= 1e-15 and abs(z - complex(ze)) <= 1e-15


def _overlap_scalar_seed(c1, c2, sigma_max, w, iterations):
    """overlap_agreement at samples=24 for float64 charts, with the seed
    search it had before the grid was batched: a Python min over scalar
    ``point`` values of chart 2 (evaluated once here, not once per sample
    as it was; ``point`` is deterministic, so the seeds are the same)."""
    m1, m2 = ReducedChartMap(c1), ReducedChartMap(c2)
    grid = [((t, s), m2.point(t, s))
            for t in [-w + 2 * w * i / 20 for i in range(21)]
            for s in [-sigma_max + 2 * sigma_max * j / 10 for j in range(11)]]
    worst = None
    for it in range(5):
        for js in range(5):
            p1 = m1.point(-w + 2 * w * it / 4,
                          -sigma_max + 2 * sigma_max * js / 4)
            (t2, s2), _ = min(grid, key=lambda g: abs(g[1][0] - p1[0]) ** 2
                              + abs(g[1][1] - p1[1]) ** 2)
            t2, s2, d = _gauss_newton_project(m2, p1, t2, s2, iterations)
            if abs(t2) <= 1.05 * w and abs(s2) <= 1.2 * sigma_max:
                worst = d if worst is None or d > worst else worst
    return worst


def test_overlap_seed_grid_matches_scalar_search():
    charts = build_atlas(unit_circle_arc(), 2, 10, 40, 2 * math.pi / 12)
    pairs = [(charts[i], charts[(i + 1) % 12], 0.35) for i in range(12)]
    parab = build_atlas(graph_arc(["0", "0", "0.5"]), n=3, K=6, D=24,
                        spacing=0.5)
    pairs.append((parab[0], parab[1], 0.375))
    # Gauss-Newton reaches the same foot from nearly any seed, so the
    # zero-iteration sups, the distances to the seeds, check the seeds
    for c1, c2, w in pairs:
        for iterations in (30, 0):
            got = overlap_agreement(c1, c2, 0.05, t_halfwidth=w,
                                    t_halfwidth_other=w,
                                    gn_iterations=iterations)
            want = _overlap_scalar_seed(c1, c2, 0.05, w, iterations)
            assert abs(got - want) <= 1e-15


@pytest.mark.parametrize("bad_chart", [0, 1])
def test_overlap_rejects_non_finite_distance(bad_chart):
    arc = unit_circle_arc()
    spacing = 2 * math.pi / 12
    pair = [extend_arc(arc, s0, n=2, K=6, D=24, with_radius=False)
            for s0 in (0.0, spacing)]
    terms = list(pair[bad_chart].phi.terms)
    coeffs = list(terms[3].coeffs)
    coeffs[2] = math.nan
    terms[3] = TaylorPoly(tuple(coeffs))
    pair[bad_chart] = dataclasses.replace(
        pair[bad_chart], phi=SigmaExpansion(n=2, terms=tuple(terms)))
    with pytest.raises(NonFiniteError):
        overlap_agreement(*pair, 0.05, t_halfwidth=0.75 * spacing,
                          t_halfwidth_other=0.75 * spacing)


def test_overlap_skips_divergent_feet_outside_window(monkeypatch):
    """A projection that runs off chart 2 (an infinite or NaN foot, with a
    distance that is not finite) is not in the overlap: it is skipped, not
    reported as a non-finite distance."""
    arc = unit_circle_arc()
    c1 = extend_arc(arc, 0.0, n=2, K=4, D=16, with_radius=False)
    c2 = extend_arc(arc, 0.3, n=2, K=4, D=16, with_radius=False)
    project = engine._gauss_newton_project
    calls = []

    def diverge_on_even_samples(cmap, target, t, s, iterations):
        calls.append(None)
        if len(calls) % 2:
            return project(cmap, target, t, s, iterations)
        return (math.inf, s, math.nan) if len(calls) % 4 else (
            math.nan, math.nan, math.inf)

    kw = dict(t_halfwidth=0.3, t_halfwidth_other=0.3)
    want = overlap_agreement(c1, c2, 0.05, **kw)
    monkeypatch.setattr(engine, "_gauss_newton_project",
                        diverge_on_even_samples)
    got = overlap_agreement(c1, c2, 0.05, **kw)
    assert math.isfinite(got) and got <= want
    monkeypatch.setattr(engine, "_gauss_newton_project",
                        lambda *a: (math.inf, 0.0, math.nan))
    with pytest.raises(CoverageError):
        overlap_agreement(c1, c2, 0.05, **kw)


@given(st.integers(2, 4), st.integers(1, 10),
       st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=6),
       st.floats(-0.3, 0.3))
@settings(max_examples=25, deadline=None)
def test_point_on_arrays_matches_scalars(n, K, tail, s0):
    arc = graph_arc(["0", "0"] + tail)
    m = ReducedChartMap(extend_arc(arc, s0, n=n, K=K, D=2 * K + 8,
                                   with_radius=False))
    T, S = np.meshgrid(np.linspace(-0.2, 0.2, 9), np.linspace(-0.05, 0.05, 5),
                       indexing="ij")
    W, Z = m.point(T, S)
    assert W.shape == Z.shape == T.shape
    eps = np.finfo(float).eps
    for idx in np.ndindex(T.shape):
        w, z = m.point(float(T[idx]), float(S[idx]))
        assert abs(W[idx] - w) <= 4 * eps * abs(w)
        assert abs(Z[idx] - z) <= 4 * eps * abs(z)


def test_residual_report_shape():
    ch = extend_arc(graph_arc(["0", "0", "0.5"]), 0.0, n=2, K=3, D=12,
                    with_radius=False)
    rep = pde_residual(ch.phi, [0.0, 0.1], [0.01, 0.02])
    assert rep.samples == 4
    assert rep.max_pde > 0.0
    assert "sigma[" in rep.grid


def test_extension_in_high_precision_matches_float():
    ctx = mp_context(30)
    f0 = poly_from([ctx.real("0"), ctx.real("0"), ctx.real("0"),
                    ctx.real("1") / 6], 18)
    exp = extend_series(f0, n=2, K=2)
    for got, want in zip(exp.terms[2].coeffs, F2_PARABOLA):
        assert abs(float(got) - want) < 1e-14
