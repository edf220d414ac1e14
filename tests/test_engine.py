"""Tests of the extension recursion, its oracles, and chart assembly."""
from __future__ import annotations

import cmath
import dataclasses
import hashlib
import math
import random
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_value, random_flat_potential
from slagext import engine, precision
from slagext.arcs import existence_gate, graph_arc, unit_circle_arc
from slagext.engine import (
    Chart,
    PDESlots,
    ReducedChartMap,
    build_atlas,
    compute_R,
    compute_f1,
    estimate_radius,
    extend_arc,
    extend_series,
    gt_g_value,
    gt_hypotheses_check,
    gt_partials,
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
    cs_add,
    cs_from_real,
    cs_mul,
    even_int_pow,
    even_mul,
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


def _even_add(a: EvenSeries, b: EvenSeries) -> EvenSeries:
    assert a.nslots == b.nslots
    return EvenSeries(tuple(cs_add(x, y) for x, y in zip(a.slots, b.slots)))


def _even_shift(a: EvenSeries) -> EvenSeries:
    """Multiply by sigma^2: prepend a zero slot, keep the slot count."""
    zero = cs_from_real(poly_zero(a.cap, like=a.slots[0].re.coeffs[0]))
    return EvenSeries((zero,) + a.slots[:-1])


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
    return w, _even_add(even_mul(pt, pb), _even_shift(even_mul(o, o)))


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


def _complex_slots(pairs) -> tuple:
    """The (re, im) coefficient-array pairs of a PDESlots factor as
    ComplexSeries, for exact comparison."""
    return tuple(ComplexSeries(TaylorPoly(re), TaylorPoly(im))
                 for re, im in pairs)


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
    assert _complex_slots(state.p) == even_int_pow(w, n - 1).slots
    # the closed I slots are the whole-series factor exactly
    assert (_complex_slots(state.i)
            == _whole_pde_factors(exp.terms, n, K, cap)[1].slots)
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


class _PolySlots(PDESlots):
    """PDESlots on immutable TaylorPoly and ComplexSeries slots, in the
    operations and order of its array rows: the reference those rows must
    equal bit for bit. It shares ``advance``, so it keeps, truncates,
    closes and resets the same slots on the same calls."""

    def _reset(self, terms, cap):
        self.cap, self.open = cap, None
        self.zero = terms[0].coeffs[0] * 0
        self.t, self.o, self.q, self.b, self.p, self.i = [], [], [], [], [], []

    def _truncate(self, cap):
        self.t, self.o, self.q, self.b = (
            [poly_truncate(x, cap) for x in xs]
            for xs in (self.t, self.o, self.q, self.b))
        self.p, self.i = ([ComplexSeries(poly_truncate(x.re, cap),
                                         poly_truncate(x.im, cap))
                           for x in xs] for xs in (self.p, self.i))
        self.w0_inv, self.w0_pow = (
            ComplexSeries(poly_truncate(x.re, cap), poly_truncate(x.im, cap))
            for x in (self.w0_inv, self.w0_pow))
        self.cap = cap

    def _term(self, f, derivs, fact):
        if f is None:
            return poly_zero(self.cap, like=self.zero)
        f = poly_truncate(f, self.cap + derivs)
        for _ in range(derivs):
            f = poly_derivative(f)
        return TaylorPoly(f.array * 1 / fact)

    def _slot(self, k, terms):
        n = self.n
        fk = terms[k] if k < len(terms) else None
        fk1 = terms[k + 1] if k + 1 < len(terms) else None
        self.t.append(self._term(fk, 2, math.factorial(2 * k)))
        if k == 0:
            q0, t0 = self._term(fk1, 0, 1), self.t[0]
            one = poly_one(self.cap, like=self.zero + 1)
            w0, inv = ComplexSeries(one, q0), poly_reciprocal(one + q0 * q0)
            self.w0_inv = ComplexSeries(inv, -(q0 * inv))
            self.w0_pow = complex_int_pow(w0, n - 2)
            self.q, self.b = [q0], [q0]
            self.p = [cs_mul(self.w0_pow, w0)]
            self.i = [ComplexSeries(one - t0 * q0, t0 + q0)]
        else:
            zp = poly_zero(self.cap, like=self.zero)
            self.o.append(self._term(fk, 1, math.factorial(2 * k - 1)))
            self.q.append(zp)
            self.b.append(zp)
            sr = si = zp
            for j in range(1, k):
                qj = self.q[j] * (n * j - k)
                sr = sr - qj * self.p[k - j].im
                si = si + qj * self.p[k - j].re
            pk = cs_mul(self.w0_inv, ComplexSeries(sr, si))
            self.p.append(ComplexSeries(TaylorPoly(pk.re.array * 1 / k),
                                        TaylorPoly(pk.im.array * 1 / k)))
            re = zp
            for j in range(1, k + 1):
                re = re - self.t[j] * self.b[k - j]
            for j in range(k):
                re = re + self.o[j] * self.o[k - 1 - j]
            self.i.append(ComplexSeries(re, self.t[k]))
        if fk1 is None:
            if self.open is None:
                self.open = k
        elif k:
            self._close(k, fk1)

    def _e(self, k):
        p, i = self.p, self.i
        ek = p[0].re * i[k].im + p[0].im * i[k].re
        for j in range(1, k + 1):
            ek = ek + (p[j].re * i[k - j].im + p[j].im * i[k - j].re)
        return ek

    def _close(self, k, f):
        q = self._term(f, 0, math.factorial(2 * k + 1))
        b = self._term(f, 0, math.factorial(2 * k))
        self.q[k], self.b[k] = q, b
        qn = q * (self.n - 1)
        self.p[k] = cs_add(self.p[k], ComplexSeries(
            -(qn * self.w0_pow.im), qn * self.w0_pow.re))
        self.i[k] = cs_add(self.i[k], ComplexSeries(-(self.t[0] * b), b))
        self.open = None


_COEFFICIENT = st.one_of(st.sampled_from([0.0, -0.0]),
                        st.floats(-1.0, 1.0, allow_subnormal=False))


@given(st.integers(2, 6), st.integers(2, 5), st.integers(0, 2),
       st.booleans(), st.lists(_COEFFICIENT, min_size=120, max_size=120))
@settings(max_examples=30, deadline=None)
def test_running_slots_equal_polynomial_and_fresh_ones(n, K, extra, mp,
                                                        cs):
    """One state fed through dropping caps, closes, slots built past the
    open one and a grown-terms reset. At every call its Im E_k equals, by
    repr, that of the TaylorPoly reference fed the same calls, so no slot
    array was changed through another that shares its memory (the zero
    placeholders, f_1 in both q_0 and b_0, t_k in I_k, a slice and the
    slot it was cut from).

    It also equals the Im E_k of a fresh state: by repr at mp30, whose
    kernel rounds each coefficient once from the exact sum, so truncating
    a product commutes with taking it; within 1e-12 of the size of E_k at
    float64, where np.convolve sums a coefficient in an order that depends
    on the operands' length, so a slot built at a higher cap and sliced
    can differ from a fresh one in the last bits."""
    D = 2 * K + 6 + extra
    if mp:
        ctx = MPContext(30)
        cs = [ctx.real(c) for c in cs]
    it = iter(cs)
    terms = [poly_from([next(it) for _ in range(D - 2 * j + 1)])
             for j in range(K + 1)]
    # (terms given, k, cap): the recursion's own calls, then slots K and
    # K + 1 past the open slot K - 1, then f_K arriving resets the state
    calls = [(k + 1, k, D - 2 * k - 2) for k in range(1, K)]
    calls += [(K, K + 1, D - 2 * K - 4), (K + 1, K + 1, D - 2 * K - 5)]
    calls += [(K + 1, k, D - 2 * K - 6) for k in range(K + 2)]
    state, reference = PDESlots(n), _PolySlots(n)
    for m, k, cap in calls:
        got = regular_pde_even_series(terms[:m], n, k, cap, state).coeffs
        assert repr(got) == repr(reference.advance(terms[:m], k, cap).coeffs)
        want = regular_pde_even_series(terms[:m], n, k, cap).coeffs
        if mp:
            assert repr(got) == repr(want), (m, k, cap)
        else:
            tol = 1e-12 * max(1.0, max(map(abs, want)))
            assert all(abs(g - w) <= tol for g, w in zip(got, want)), (
                m, k, cap)


def test_slots_carry_nan_and_inf_through_the_loop_product(monkeypatch):
    """mp30 terms with +inf in a coefficient of f_2 and NaN in one of f_3,
    through one state as the recursion feeds it: every product touching
    them takes the loop fallback, and every Im E_k, by repr, is what the
    slots of mpf objects made."""
    ctx = MPContext(30)
    rng = random.Random(31)
    n, K, D = 3, 4, 16
    terms = [[ctx.real(rng.uniform(-1, 1)) for _ in range(D - 2 * j + 1)]
             for j in range(K + 1)]
    terms[2][8], terms[3][10] = ctx.real("inf"), ctx.real("nan")
    terms = [poly_from(cs) for cs in terms]
    loop, loops = precision._loop_product, []
    monkeypatch.setattr(precision, "_loop_product",
                        lambda ca, cb: loops.append(1) or loop(ca, cb))
    state, text = PDESlots(n), []
    for k in range(1, K + 1):
        e = regular_pde_even_series(terms[:k + 1 + (k == K)], n, k,
                                    D - 2 * k - 2, state)
        text += map(repr, e.coeffs)
    # finite, infinite and NaN coefficients all reach Im E_k
    assert loops and all(any(bad in c for c in text)
                         for bad in ("nan", "inf"))
    assert hashlib.sha256("\n".join(text).encode()).hexdigest() == (
        "526af0519491e82dc08bf1667a07fa4e2e728bd5d5382e3bb416d01ee723775b")


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


@pytest.mark.parametrize("n, sigma", [(2, 0.0), (3, 0.37), (5, 0.2)])
def test_gt_partials_match_centered_differences(n, sigma):
    """The closed-form partials of G at z = 0 against centered differences
    of ``gt_g_value``, also at sigma != 0 where every partial is live."""
    h = 1e-6
    for coeffs in ((0.0, 0.0, 0.0, 0.0), (0.3, -0.2, 0.7, 0.4),
                   (-0.8, 0.5, -1.1, 2.0)):
        got = gt_partials(n, sigma, *coeffs)
        for var in range(6):
            z = [0.0] * 6
            z[var] = h
            up = gt_g_value(n, sigma, tuple(z), *coeffs)
            z[var] = -h
            down = gt_g_value(n, sigma, tuple(z), *coeffs)
            assert got[var] == pytest.approx((up - down) / (2 * h),
                                             abs=1e-8)


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
        # closed-form partials: exact at the base point, and the
        # first-order placeholders enter G only through sigma^2
        assert rep.partials == rep.expected
        assert rep.cond2_max == 0.0


def _digest(charts) -> str:
    """SHA-256 of the reprs of every f_k coefficient of the charts, so
    zero signs and the last digit count."""
    text = "\n".join(repr(c) for ch in charts for f in ch.phi.terms
                     for c in f.coeffs)
    return hashlib.sha256(text.encode()).hexdigest()


def test_recursion_output_is_frozen():
    """Every f_k, bit for bit, as the tuple-backed recursion made them
    before the coefficients moved into arrays: a deep float64 arc (all
    three branches), the unit-circle atlas and an mp40 arc."""
    arc = graph_arc(["0", "0", "0.52", "0.031", "-0.027"])
    deep = [extend_arc(arc, 0.05, n=3, K=16, D=64, branch=b)
            for b in range(3)]
    assert _digest(deep) == (
        "b80b25a1fa484ec29b44b4025daeff06329e6dd58c3f1ec92cf45088f0fe7027")
    circle = build_atlas(unit_circle_arc(), 2, 10, 40, 2 * math.pi / 12)
    assert len(circle) == 12
    assert _digest(circle) == (
        "3e371759d60b57c068f84b1a649bec3149f1d71bdaf80801871870780c67beb5")
    ctx = MPContext(40)
    arc = graph_arc(["0", "0", "0.5", "0.01", "-0.01"], ctx)
    mp40 = [extend_arc(arc, ctx.real("0.03"), n=2, K=8, D=48, ctx=ctx)]
    assert _digest(mp40) == (
        "3a3471fc62444447c6467f33bd6978c6b57c3c003b592603f7aada711bd7ac12")


def test_recursion_on_wide_range_mp_arcs_is_frozen():
    """mp30 and mp50 f_k, bit for bit, on arcs whose graph coefficients
    fall (1e-5 per degree, alternating signs) or grow (1e4 per degree)
    over 30 decades, so that the mpf product kernel scales t by 2**s
    with s from -9 to 43. Frozen before the kernel balanced its operands."""
    digests = []
    for coeffs in (["0", "0", "0.5"] + [f"{(-1) ** j}e{-5 * j}"
                                        for j in range(1, 7)],
                   ["0", "0", "0.5"] + [f"1e{4 * j}" for j in range(1, 9)]):
        for dps in (30, 50):
            ctx = MPContext(dps)
            digests.append(_digest([extend_arc(
                graph_arc(coeffs, ctx), ctx.real("0.01"), n=2, K=6, D=36,
                ctx=ctx)]))
    assert digests == [
        "197bd31ab38d7c4d8f73a741611663cb268ceade15e6347708d4a85aaa3a6c04",
        "495aa554e33d18ed0002421c34df0a6d67d653f9a3d5718ebe406c920d63ae47",
        "d55cc65d68d0be08e97d4c64e7447fbdfcc08f4be5d35c7fe6c29e16b4634fb3",
        "0d78f34a0159cadb7ed0a2e252e2d5b61cab547341f389e205da15b851e67091"]


def test_recursion_on_python_int_coefficients_is_frozen():
    """Python int and float coefficients: the slots sum int zeros with
    float arrays, which must still take the float64 product kernel. Every
    f_k, bit for bit, as the TaylorPoly slots made them."""
    f0 = poly_from([0, 0, 0, 0.3, 3, 3, -0.0, 3, 1, -0.0], 9)
    text = "\n".join(repr(c) for f in extend_series(f0, 4, 3).terms
                     for c in f.coeffs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "01333c515f3150d6a29ccf2c5177ff606a41dc57e1bbc1a15e9cd348220fd80a")


def test_recursion_on_mixed_scalars_is_frozen():
    """mpf mixed with Python floats, and mpf of two contexts, in one f0:
    slots holding them take the mpf objects' own arithmetic. Every f_k,
    bit for bit, as the slots of mpf objects made them."""
    a, b = MPContext(30), MPContext(40)
    tail = [a.real("0.01")] * 10
    digests = []
    for head in ([0.1, a.real("0.2"), -0.05],
                 [b.real("0.1"), a.real("0.2"), b.real("-0.05")]):
        f0 = poly_from([a.real(0)] * 3 + head + tail)
        text = "\n".join(repr(c) for f in extend_series(f0, 3, 4).terms
                         for c in f.coeffs)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    assert digests == [
        "e87c19d3bdba1cef14be97b5add7f1636da4229b1a38c0424bd06b0edf7119b9",
        "1d4aa554f418c0949cd91737e38924743fb0618702b307fbb6b189944acc0228"]


# worst per-term error of the float64 f_k against the exact ones, measured
# at n=3, f0 = t^3/6 + t^4/10 - t^5/7, D = 4K (ROADMAP item 3)
MEASURED_PER_TERM = {4: 1.2e-15, 6: 2.1e-15}


@pytest.mark.parametrize("K", sorted(MEASURED_PER_TERM))
def test_recursion_against_exact_rational_terms(K):
    """float64 and mp40 f_k against the exact f_k of the same recursion
    over Fractions. The bound is 4 times the measured worst per-term error
    (largest coefficient error over max|coefficient| of that f_k), counted
    in units of each precision's epsilon: headroom for the last bits that
    another numpy or platform may round differently, far below any change
    to the recursion itself."""
    margin, D = 4, 4 * K
    coeffs = (Fraction(1, 6), Fraction(1, 10), Fraction(-1, 7))
    exact = extend_series(poly_from([Fraction(0)] * 3 + list(coeffs), D),
                          3, K).terms
    ctx = MPContext(40)
    for f0, eps in (
        (poly_from([0.0] * 3 + [float(c) for c in coeffs], D), 2.0 ** -52),
        (poly_from([ctx.real(0)] * 3 + [ctx.real(c.numerator) / c.denominator
                                        for c in coeffs], D),
         2.0 ** (1 - mpmath.libmp.dps_to_prec(ctx.dps))),
    ):
        bound = margin * MEASURED_PER_TERM[K] / 2.0 ** -52 * eps
        got = extend_series(f0, 3, K).terms
        assert len(got) == len(exact) == K + 1
        for fk, ek in zip(got[1:], exact[1:]):
            scale = max(abs(c) for c in ek.coeffs)
            err = max(abs(exact_value(g) - e)
                      for g, e in zip(fk.coeffs, ek.coeffs))
            assert err <= bound * scale


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


@pytest.mark.parametrize("coeffs, k", [
    pytest.param(["0", "0", "0.5", "1e300"], 1, id="cubic-1e300"),
    pytest.param(["0", "0", "1e150", "1e150"], 1, id="quadratic-1e150"),
])
def test_overflowing_recursion_fails_loudly(coeffs, k):
    with pytest.raises(NonFiniteError, match=f"f_{k} has a NaN or infinite"):
        extend_arc(graph_arc(coeffs), 0.0, n=3, K=4, D=16)


def test_infinite_mp_coefficient_fails_the_recursion():
    ctx = MPContext(30)
    f0 = poly_from([ctx.real(c) for c in ("0", "0", "0", "1", "inf")], 8)
    with pytest.raises(NonFiniteError, match="f_1 has a NaN or infinite"):
        extend_series(f0, 2, 3)


def test_radius_of_mp_terms_beyond_float_is_fitted():
    # finite at mp30, but the amplitude of f_1 (about 1e600) is no float:
    # the fit takes its log from the mpf sum, and C rounds to inf
    ctx = MPContext(30)
    arc = graph_arc(["0", "0", "0.5", "1e300"], ctx)
    ch = extend_arc(arc, ctx.real(0), n=3, K=4, D=16, ctx=ctx)
    assert max(abs(c) for c in ch.phi.terms[1].coeffs) > ctx.real("1e308")
    r = ch.radius
    assert r == estimate_radius(ch.phi)
    assert all(map(math.isfinite, (r.M, r.rho_sigma, r.fit_quality)))
    assert r.C == math.inf and 0 < r.rho_sigma < 1e-100
    assert 0.5 < r.fit_quality <= 1.0


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
    # each sample's graph seed on the same chart is its own foot, so
    # Gauss-Newton ends at the exact foot
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


def _scalar_gauss_newton(cmap, target, t, s, iterations):
    """The per-sample Gauss-Newton projection that ``overlap_agreement``
    ran before its samples were projected as arrays: the scalar reference
    of ``engine._gauss_newton_project``, one sample per call."""
    ctx = cmap.ctx
    tiny = ctx.real(ctx.eps) * 100
    for _ in range(iterations):
        (w, z), (dw_dt, dw_ds, dz_dt, dz_ds) = cmap.point_and_jacobian(t, s)
        rw = w - target[0]
        rz = z - target[1]
        a11 = (abs(dw_dt) ** 2 + abs(dz_dt) ** 2)
        a22 = (abs(dw_ds) ** 2 + abs(dz_ds) ** 2)
        a12 = (dw_dt.conjugate() * dw_ds + dz_dt.conjugate() * dz_ds).real
        b1 = -(dw_dt.conjugate() * rw + dz_dt.conjugate() * rz).real
        b2 = -(dw_ds.conjugate() * rw + dz_ds.conjugate() * rz).real
        det = a11 * a22 - a12 * a12
        if not float(abs(det)) > 0:
            break
        dt = (b1 * a22 - b2 * a12) / det
        ds = (b2 * a11 - b1 * a12) / det
        t = t + dt
        s = s + ds
        if float(abs(dt)) + float(abs(ds)) < float(tiny):
            break
    w, z = cmap.point(t, s)
    dist = ctx.sqrt(abs(w - target[0]) ** 2 + abs(z - target[1]) ** 2)
    return t, s, dist


def _seed_grid(sigma_max, w):
    ts = [-w + 2 * w * i / 20 for i in range(21)]
    ss = [-sigma_max + 2 * sigma_max * j / 10 for j in range(11)]
    return [(t, s) for t in ts for s in ss]


def _samples(m1, sigma_max, w):
    """The points of chart 1 that overlap_agreement samples at samples=24:
    a 5 x 5 grid, t-outer, sigma-inner."""
    for it in range(5):
        for js in range(5):
            yield m1.point(-w + 2 * w * it / 4,
                           -sigma_max + 2 * sigma_max * js / 4)


def _graph_seed(c2, m2):
    """Chart 2's graph coordinates of one point, by the scalar form of
    ``ReducedChartMap.graph_coordinates``'s formula and rounding."""
    wc, zc = m2.w_phase.conjugate(), m2.z_phase.conjugate()
    return lambda p: ((p[0] * wc + m2.a).real, (p[1] * zc).real)


def _frame_seed(c2, m2):
    """Chart 2's graph coordinates of one point, written from its frame
    with cmath: w e^(i n theta) + a = t + i phi_t and
    zeta e^(-i (theta + pi branch / n)) = sigma + i phi_sigma. Rounded
    otherwise than ``_graph_seed``."""
    n, theta = c2.n, c2.frame.theta
    rw = cmath.exp(1j * n * theta)
    rz = cmath.exp(-1j * (theta + c2.branch * math.pi / n))
    return lambda p: ((p[0] * rw + c2.frame.a).real, (p[1] * rz).real)


def _grid_seed(sigma_max, w):
    """The seed search overlap_agreement made before it seeded from graph
    coordinates: the nearest point of a 21 x 11 (t, sigma) grid on chart
    2, by a Python min over scalar ``point`` values."""
    def seed(c2, m2):
        grid = [(ts, m2.point(*ts)) for ts in _seed_grid(sigma_max, w)]
        return lambda p: min(grid, key=lambda g: abs(g[1][0] - p[0]) ** 2
                             + abs(g[1][1] - p[1]) ** 2)[0]
    return seed


def _overlap_scalar(c1, c2, sigma_max, w, iterations, seed=_graph_seed):
    """overlap_agreement at samples=24 for float64 charts as it was before
    its samples were projected as arrays: one scalar Gauss-Newton
    projection per sample from ``seed(c2, m2)(point)``. Returns the sup and
    the indices of the counted samples."""
    m1, m2 = ReducedChartMap(c1), ReducedChartMap(c2)
    seeds = seed(c2, m2)
    worst, counted = None, []
    for k, p1 in enumerate(_samples(m1, sigma_max, w)):
        t2, s2, d = _scalar_gauss_newton(m2, p1, *seeds(p1), iterations)
        if abs(t2) <= 1.05 * w and abs(s2) <= 1.2 * sigma_max:
            worst = d if worst is None or d > worst else worst
            counted.append(k)
    return worst, counted


@pytest.fixture(scope="module")
def overlap_pairs():
    """The 12 neighbouring pairs of the K=10 circle atlas and one pair of
    the n=3 parabola atlas, each with its t half-width."""
    charts = build_atlas(unit_circle_arc(), 2, 10, 40, 2 * math.pi / 12)
    pairs = [(charts[i], charts[(i + 1) % 12], 0.35) for i in range(12)]
    parab = build_atlas(graph_arc(["0", "0", "0.5"]), n=3, K=6, D=24,
                        spacing=0.5)
    return pairs + [(parab[0], parab[1], 0.375)]


def test_overlap_graph_seeds_match_grid_search_and_frame(overlap_pairs,
                                                         monkeypatch):
    # the feet do not depend on the seeds: Gauss-Newton from the nearest
    # point of a 21 x 11 seed grid counts the same samples and reaches the
    # same sup; with no iteration the sup is the distance to the graph
    # seed, which chart 2's frame gives up to rounding
    feet = []
    project = engine._gauss_newton_project

    def record(cmap, target, t, s, iterations):
        out = project(cmap, target, t, s, iterations)
        feet.append(out[:2])
        return out

    monkeypatch.setattr(engine, "_gauss_newton_project", record)
    for c1, c2, w in overlap_pairs:
        for iterations, seed in ((30, _grid_seed(0.05, w)),
                                 (0, _frame_seed)):
            got = overlap_agreement(c1, c2, 0.05, t_halfwidth=w,
                                    t_halfwidth_other=w,
                                    gn_iterations=iterations)
            t2, s2 = feet.pop()
            assert t2.size == 25
            counted = np.flatnonzero((abs(t2) <= 1.05 * w)
                                     & (abs(s2) <= 1.2 * 0.05)).tolist()
            want, want_counted = _overlap_scalar(c1, c2, 0.05, w,
                                                 iterations, seed)
            assert counted == want_counted
            assert abs(got - want) <= 1e-15


def test_overlap_projection_equals_scalar_loop(overlap_pairs):
    # one array projection per pair, bit for bit the per-sample loop:
    # every lane starts at its scalar seed and stops where its scalar
    # projection stops
    for c1, c2, w in overlap_pairs:
        for iterations in (30, 1, 0):
            got = overlap_agreement(c1, c2, 0.05, t_halfwidth=w,
                                    t_halfwidth_other=w,
                                    gn_iterations=iterations)
            want, _ = _overlap_scalar(c1, c2, 0.05, w, iterations)
            assert repr(got) == repr(want)


def test_overlap_takes_two_point_calls_and_four_steps(overlap_pairs,
                                                      monkeypatch):
    # seeded at the foot, each projection of the K=10 circle atlas is done
    # in at most 4 Gauss-Newton steps; one point call evaluates the
    # samples and one the feet
    calls = []
    for name in ("point", "point_and_jacobian"):
        method = getattr(ReducedChartMap, name)
        monkeypatch.setattr(
            ReducedChartMap, name,
            lambda self, t, s, name=name, method=method: (
                calls.append(name) or method(self, t, s)))
    for c1, c2, w in overlap_pairs[:12]:
        calls.clear()
        overlap_agreement(c1, c2, 0.05, t_halfwidth=w, t_halfwidth_other=w)
        assert calls.count("point") == 2
        assert calls.count("point_and_jacobian") <= 4


def test_overlap_projects_each_pair_in_one_call(monkeypatch):
    calls = []
    project = engine._gauss_newton_project

    def count(cmap, target, t, s, iterations):
        calls.append(t.size)
        return project(cmap, target, t, s, iterations)

    monkeypatch.setattr(engine, "_gauss_newton_project", count)
    arc = unit_circle_arc()
    c1, c2 = (extend_arc(arc, s0, n=2, K=4, D=16, with_radius=False)
              for s0 in (0.0, 0.3))
    overlap_agreement(c1, c2, 0.05, t_halfwidth=0.3, t_halfwidth_other=0.3)
    assert calls == [25]


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


@pytest.mark.parametrize("bad_lane, message", [
    (7, r"overlap distance nan at chart-1 sample \(t, sigma\) = \(-0.15, 0\)"),
    (14, r"chart 1 is not finite at \(t, sigma\) = \(0, 0\)"),
])
def test_overlap_reports_the_first_failure_in_sample_order(
        monkeypatch, bad_lane, message):
    # sample 12, (t, sigma) = (0, 0), is not finite on chart 1; a NaN
    # distance at sample 7 comes before it, one at sample 15 (lane 14,
    # since sample 12 is not projected) after it
    arc = unit_circle_arc()
    c1, c2 = (extend_arc(arc, s0, n=2, K=4, D=16, with_radius=False)
              for s0 in (0.0, 0.3))
    point, project = ReducedChartMap.point, engine._gauss_newton_project

    def nan_at_sample_12(self, t, sigma):
        w, z = point(self, t, sigma)
        if t.size == 25:
            w[12] = complex(math.nan, 0.0)
        return w, z

    def nan_distance(cmap, target, t, s, iterations):
        t, s, dist = project(cmap, target, t, s, iterations)
        t[bad_lane], s[bad_lane], dist[bad_lane] = 0.0, 0.0, math.nan
        return t, s, dist

    monkeypatch.setattr(ReducedChartMap, "point", nan_at_sample_12)
    monkeypatch.setattr(engine, "_gauss_newton_project", nan_distance)
    with pytest.raises(NonFiniteError, match=message):
        overlap_agreement(c1, c2, 0.05, t_halfwidth=0.3,
                          t_halfwidth_other=0.3)


def test_overlap_skips_divergent_feet_outside_window(monkeypatch):
    """A projection that runs off chart 2 (an infinite or NaN foot, with a
    distance that is not finite) is not in the overlap: it is skipped, not
    reported as a non-finite distance."""
    arc = unit_circle_arc()
    c1 = extend_arc(arc, 0.0, n=2, K=4, D=16, with_radius=False)
    c2 = extend_arc(arc, 0.3, n=2, K=4, D=16, with_radius=False)
    project = engine._gauss_newton_project
    kept = []

    def diverge_on_odd_lanes(cmap, target, t, s, iterations):
        t, s, dist = project(cmap, target, t, s, iterations)
        t[1::4], dist[1::4] = math.inf, math.nan
        t[3::4], s[3::4], dist[3::4] = math.nan, math.nan, math.inf
        inside = (abs(t[::2]) <= 1.05 * 0.3) & (abs(s[::2]) <= 1.2 * 0.05)
        kept.append(dist[::2][inside])
        return t, s, dist

    kw = dict(t_halfwidth=0.3, t_halfwidth_other=0.3)
    want = overlap_agreement(c1, c2, 0.05, **kw)
    monkeypatch.setattr(engine, "_gauss_newton_project",
                        diverge_on_odd_lanes)
    got = overlap_agreement(c1, c2, 0.05, **kw)
    # the sup over the even lanes whose feet lie in chart 2's window
    assert got == float(np.max(kept[0])) <= want
    monkeypatch.setattr(
        engine, "_gauss_newton_project",
        lambda cmap, target, t, s, iterations: (
            np.full(t.shape, math.inf), s, np.full(t.shape, math.nan)))
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


@given(st.booleans(), st.integers(2, 4), st.integers(2, 6),
       st.integers(0, 3), st.floats(-0.3, 0.3),
       st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4),
       st.lists(st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
                min_size=1, max_size=6))
@settings(max_examples=20, deadline=None)
def test_graph_coordinates_invert_point(circle, n, K, branch, s0, tail, ts):
    # a chart is the gradient graph of its potential rotated by its frame,
    # so the graph coordinates of its point at (t, sigma) are (t, sigma)
    branch %= n
    T, S = (np.array(v) for v in zip(*ts))
    eps = np.finfo(float).eps
    for ctx, lanes in ((FLOAT64, float), (MPContext(30), object)):
        arc = (unit_circle_arc(ctx) if circle
               else graph_arc(["0", "0", "0.5"] + tail, ctx))
        ch = extend_arc(arc, ctx.real(s0), n=n, K=K, D=2 * K + 8,
                        branch=branch, ctx=ctx, with_radius=False)
        m = ReducedChartMap(ch, ctx)
        t, s = (np.array([ctx.real(x) for x in v], dtype=lanes)
                for v in (T, S))
        gt, gs = m.graph_coordinates(*m.point(t, s))
        err = np.asarray([abs(gt - t), abs(gs - s)], dtype=float)
        if ctx is FLOAT64:
            assert err.max() <= 4 * eps * (1 + abs(ch.frame.a))
        else:
            assert err.max() <= 1e-28


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


def _mp_chart_terms(ctx):
    ch = extend_arc(graph_arc(["0", "0", "0.5", "0.1"], ctx=ctx),
                    ctx.real("0.05"), n=3, K=4, D=20, ctx=ctx,
                    with_radius=False)
    return ch.phi


def test_mp_residual_is_nan_when_a_coefficient_is_nan():
    # numpy's .imag of an object array of mpc reads 0, which would hide
    # the NaN the left side carries
    ctx = MPContext(40)
    phi = _mp_chart_terms(ctx)
    terms = list(phi.terms)
    coeffs = list(terms[2].coeffs)
    coeffs[3] = ctx.real("nan")
    terms[2] = TaylorPoly(tuple(coeffs))
    bad = SigmaExpansion(n=phi.n, terms=tuple(terms))
    ts = [ctx.real(-0.1 + 0.2 * j / 6) for j in range(7)]
    ss = [ctx.real("0.05") * (j + 1) / 4 for j in range(4)]
    assert math.isnan(pde_residual(bad, ts, ss).max_pde)
    assert math.isnan(pde_residual(bad, [0.05], [0.02]).max_pde)
    assert pde_residual(phi, ts, ss).max_pde < 1e-12


def test_mp_residual_equals_the_per_point_left_side():
    # the grid evaluates each f_k once per t; the left side is still taken
    # point by point on mpc scalars of the chart's context
    ctx = MPContext(40)
    phi = _mp_chart_terms(ctx)
    ts = [ctx.real(-0.1 + 0.2 * j / 4) for j in range(5)]
    ss = [ctx.real("0.04") * (j + 1) / 3 for j in range(3)]
    vals = [pde_lhs_value(phi, t, s) for t in ts for s in ss]
    assert all(v.context is ts[0].context for v in vals)
    rep = pde_residual(phi, ts, ss)
    assert rep.max_pde == max(abs(float(v)) for v in vals)
    assert rep.samples == 15
    before = rep.max_pde
    dps = mpmath.mp.dps
    try:
        mpmath.mp.dps = 15
        assert pde_residual(phi, ts, ss).max_pde == before
    finally:
        mpmath.mp.dps = dps


def test_float_residual_keeps_ieee_semantics_without_warnings():
    # an infinite coefficient overflows the left side; the array path
    # reports it in max_pde rather than in a numpy warning
    ch = extend_arc(graph_arc(["0", "0", "0.5"]), 0.0, n=2, K=3, D=12,
                    with_radius=False)
    terms = list(ch.phi.terms)
    terms[2] = TaylorPoly((math.inf,) + terms[2].coeffs[1:])
    bad = SigmaExpansion(n=2, terms=tuple(terms))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = pde_residual(bad, [0.0, 0.1], [0.01, 0.02])
    assert not math.isfinite(rep.max_pde)


def test_overflowing_left_side_is_nan_at_a_point_and_on_the_grid():
    # CPython's complex ** raises OverflowError on an infinite power; the
    # scalar call powers by the same products as the array path instead
    ch = extend_arc(graph_arc(["0", "0", "0.5", "0.1"]), 0.0, n=3, K=3,
                    D=12, with_radius=False)
    terms = list(ch.phi.terms)
    terms[1] = TaylorPoly(terms[1].coeffs[:1] + (1e200,)
                          + terms[1].coeffs[2:])
    bad = SigmaExpansion(n=3, terms=tuple(terms))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(pde_lhs_value(bad, 0.1, 0.05))
        assert math.isnan(pde_residual(bad, [0.1], [0.05]).max_pde)
