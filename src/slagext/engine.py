"""Series extension engine.

Given a normalized arc potential f0, the extension of the arc to an
SO(n)-invariant special Lagrangian graph is the even series
phi(t, sigma) = sum f_k(t) sigma^(2k)/(2k)! determined order by order:

* f1 = -tan(arctan(f0'') / n) kills the sigma^0 coefficient of the PDE;
* R = (1 + i f1)^n (1 + i f0'') is then real, R(0) = 1, and the sigma^(2k)
  coefficient of the regularized PDE is affine in f_{k+1} with slope
  R/(1+f1^2) * (2k+n)/(2k+1)!, so each f_{k+1} is solved by evaluating the
  coefficient with f_{k+1} = 0 and dividing.

The recursion is online, in the sense of relaxed power series (van der
Hoeven, "Relax, but don't be too lazy", JSC 2002): ``PDESlots`` keeps the
factors of the regularized PDE series E = P I, P = (1 + i q)^(n-1), as
running slot lists; step k computes slot k only and returns Im E_k, and E
is not stored. P_k comes from J.C.P. Miller's power recurrence
k W_0 P_k = sum_(j=1..k) (n j - k) W_j P_(k-j) with W = 1 + i q, I_k and
Im E_k from one convolution row each, and two rank-one corrections finish
P_k and I_k once f_{k+1} is solved. A step is O(k) truncated products at
cap D - 2k - 2, so O(k (D - 2k)^2) coefficient operations, instead of
rebuilding all k + 1 slots.

Each recursion step consumes two t-degrees (it differentiates f_k twice),
so a degree-D potential supports K <= D/2 sigma-orders; the engine tracks
the descending caps and returns all terms re-truncated to the common cap
D - 2K.

The same graded expansion evaluated with all known terms gives the PDE
residual; the singular second-order normal form behind the recursion is
checked numerically in ``gt_hypotheses_check``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .arcs import (
    ArcSpec,
    Frame,
    GateResult,
    existence_gate,
    normalize_at,
    tangent_angles,
)
from .errors import (
    CoverageError,
    DegreeExhaustionError,
    GateObstructionError,
    NonFiniteError,
    NormalizationError,
    SeriesShapeError,
)
from .precision import FLOAT64, Context, complex_product
from .series import (
    ComplexSeries,
    SigmaExpansion,
    SigmaJetEvaluator,
    TaylorPoly,
    analytic_compose,
    complex_int_pow,
    cs_add,
    cs_mul,
    cs_truncate,
    poly_add,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_neg,
    poly_one,
    poly_reciprocal,
    poly_scale,
    poly_truncate,
    poly_zero,
)


def _scale_ratio(p: TaylorPoly, num: int, den: int) -> TaylorPoly:
    return TaylorPoly(tuple(c * num / den for c in p.coeffs))


def _max_abs(p: TaylorPoly) -> float:
    return max(abs(float(c)) for c in p.coeffs)


def _require_flat_base(f0: TaylorPoly) -> TaylorPoly:
    """Check f0(0) = f0'(0) = f0''(0) = 0 and clear rounding residue."""
    if f0.cap < 2:
        raise DegreeExhaustionError("f0 needs degree cap >= 2")
    scale = max(1.0, _max_abs(f0))
    head = f0.coeffs[:3]
    if any(abs(float(c)) > 1e-10 * scale for c in head):
        raise NormalizationError(
            "f0 must vanish to second order at t = 0 (normalize the arc first)"
        )
    z = f0.coeffs[0] * 0
    return TaylorPoly((z, z, z) + f0.coeffs[3:])


def compute_f1(f0: TaylorPoly, n: int) -> TaylorPoly:
    """First correction term: f1 = -tan(arctan(f0'') / n), cap D - 2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    f0 = _require_flat_base(f0)
    f0pp = poly_derivative(poly_derivative(f0))
    alpha = analytic_compose("arctan", f0pp)
    alpha_over_n = TaylorPoly(tuple(c / n for c in alpha.coeffs))
    return poly_neg(analytic_compose("tan", alpha_over_n))


def compute_R(f0: TaylorPoly, n: int, f1: Optional[TaylorPoly] = None
              ) -> TaylorPoly:
    """R = (1 + i f1)^n (1 + i f0''), which is real once f1 solves the
    sigma^0 equation. The imaginary part is asserted below 1e-13 (relative)
    and dropped; R(0) = 1."""
    f0 = _require_flat_base(f0)
    if f1 is None:
        f1 = compute_f1(f0, n)
    f0pp = poly_derivative(poly_derivative(f0))
    cap = min(f1.cap, f0pp.cap)
    one = poly_one(cap, like=_one_scalar(f0))
    base = ComplexSeries(one, poly_truncate(f1, cap))
    last = ComplexSeries(one, poly_truncate(f0pp, cap))
    prod = cs_mul(complex_int_pow(base, n), last)
    # rounding noise in the cancellation tracks the size of f1's own
    # coefficients, not just the surviving real part
    scale = max(1.0, _max_abs(prod.re), _max_abs(f1))
    if _max_abs(prod.im) > 1e-13 * scale:
        raise NormalizationError(
            "imaginary part of (1+i f1)^n (1+i f0'') did not cancel; "
            "f1 does not solve the base equation"
        )
    return prod.re


def _one_scalar(p: TaylorPoly):
    return p.coeffs[0] * 0 + 1


class PDESlots:
    """Running slot lists of the factors of the regularized PDE series.

    The series is E = P I with W = 1 + i q (q = phi_sigma/sigma),
    P = W^(n-1) and
    I = (1 + i phi_tt)(1 + i phi_ss) + sigma^2 (phi_st/sigma)^2.
    Slot k of each factor needs only f_0..f_(k+1), and f_(k+1) enters it
    only through W_k = i f_(k+1)/(2k+1)! and (phi_ss)_k = f_(k+1)/(2k)!.
    A slot k >= 1 is therefore built without those two parts and closed
    once f_(k+1) is known, by two rank-one corrections,
    P_k += (n-1) W_k W_0^(n-2) and I_k += (1 + i phi_tt)_0 (i phi_ss)_k.
    E is not stored; each step sums Im E_k from the P and I slots.

    P_k follows J.C.P. Miller's power recurrence (Knuth, TAOCP Vol. 2,
    4.7): W dP = (n-1) P dW in sigma^2 gives
    k W_0 P_k = sum_(j=1..k) (n j - k) W_j P_(k-j), and W_0 = 1 + i f1 is
    invertible because f1(0) = 0.
    """

    def __init__(self, n: int):
        self.n = n
        self.cap = None
        self.open = None  # first slot still missing its f_(k+1)

    def advance(self, terms: Sequence[TaylorPoly], k: int,
                cap: int) -> TaylorPoly:
        """Im E_k at ``cap`` for ``terms``, which extend the previous
        call's terms. Built slots are kept unless the cap grew or a new
        term reaches past the one open slot; then all are built again."""
        j = self.open
        grown = j is not None and len(terms) > j + 1
        if (self.cap is None or cap > self.cap
                or (grown and (j == 0 or len(self.p) > j + 1))):
            self._reset(terms, cap)
        else:
            self._truncate(cap)
            if grown:
                self._close(j, terms[j + 1])
        for j in range(len(self.p), k + 1):
            self._slot(j, terms)
        return self._e(k)

    def _reset(self, terms, cap: int):
        self.cap = cap
        self.zero = terms[0].coeffs[0] * 0
        self.open = None
        self.t, self.o, self.q, self.b = [], [], [], []
        self.p, self.i = [], []

    def _truncate(self, cap: int):
        if cap == self.cap:
            return
        self.t, self.o, self.q, self.b = (
            [poly_truncate(x, cap) for x in xs]
            for xs in (self.t, self.o, self.q, self.b)
        )
        self.p, self.i = (
            [cs_truncate(x, cap) for x in xs] for xs in (self.p, self.i)
        )
        self.w0_inv = cs_truncate(self.w0_inv, cap)
        self.w0_pow = cs_truncate(self.w0_pow, cap)
        self.cap = cap

    def _term(self, f: Optional[TaylorPoly], derivs: int, fact: int):
        """f^(derivs)/fact at the slot cap; zero for a missing term."""
        if f is None:
            return poly_zero(self.cap, like=self.zero)
        if f.cap < self.cap + derivs:
            raise SeriesShapeError(
                "term cap too small for the requested slot cap"
            )
        f = poly_truncate(f, self.cap + derivs)
        for _ in range(derivs):
            f = poly_derivative(f)
        return _scale_ratio(f, 1, fact)

    def _slot(self, k: int, terms):
        n = self.n
        fk = terms[k] if k < len(terms) else None
        fk1 = terms[k + 1] if k + 1 < len(terms) else None
        self.t.append(self._term(fk, 2, math.factorial(2 * k)))
        if k == 0:
            q0 = self._term(fk1, 0, 1)
            one = poly_one(self.cap, like=self.zero + 1)
            w0 = ComplexSeries(one, q0)
            inv = poly_reciprocal(one + q0 * q0)
            self.w0_inv = ComplexSeries(inv, -(q0 * inv))
            self.w0_pow = complex_int_pow(w0, n - 2)
            self.q.append(q0)
            self.b.append(q0)
            t0 = self.t[0]
            self.p.append(cs_mul(self.w0_pow, w0))
            self.i.append(ComplexSeries(one - t0 * q0, t0 + q0))
        else:
            zp = poly_zero(self.cap, like=self.zero)
            self.o.append(self._term(fk, 1, math.factorial(2 * k - 1)))
            self.q.append(zp)
            self.b.append(zp)
            # Miller's recurrence without its j = k term
            sr = si = zp
            for j in range(1, k):
                qj = poly_scale(self.q[j], n * j - k)
                sr = sr - qj * self.p[k - j].im
                si = si + qj * self.p[k - j].re
            pk = cs_mul(self.w0_inv, ComplexSeries(sr, si))
            self.p.append(ComplexSeries(_scale_ratio(pk.re, 1, k),
                                        _scale_ratio(pk.im, 1, k)))
            # phi_tt, phi_ss slots j >= 1 are imaginary, phi_st/sigma real
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

    def _e(self, k: int) -> TaylorPoly:
        # summed afresh from finished P and I slots: adding the rank-one
        # parts to E_k instead doubles the rounding in its cancelling
        # imaginary part. Im only, in the order of cs_mul and cs_add.
        p, i = self.p, self.i
        ek = p[0].re * i[k].im + p[0].im * i[k].re
        for j in range(1, k + 1):
            ek = ek + (p[j].re * i[k - j].im + p[j].im * i[k - j].re)
        return ek

    def _close(self, k: int, f: TaylorPoly):
        """Add the parts of P_k and I_k that f = f_(k+1) contributes."""
        q = self._term(f, 0, math.factorial(2 * k + 1))
        b = self._term(f, 0, math.factorial(2 * k))
        self.q[k], self.b[k] = q, b
        qn = poly_scale(q, self.n - 1)
        dp = ComplexSeries(-(qn * self.w0_pow.im), qn * self.w0_pow.re)
        di = ComplexSeries(-(self.t[0] * b), b)
        self.p[k] = cs_add(self.p[k], dp)
        self.i[k] = cs_add(self.i[k], di)
        self.open = None


def regular_pde_even_series(terms: Sequence[TaylorPoly], n: int, k: int,
                            cap: int, state: Optional[PDESlots] = None
                            ) -> TaylorPoly:
    """Im E_k, slot k of the regularized PDE left side as an even
    sigma-series.

    E = (1 + i q)^(n-1) ((1 + i phi_tt)(1 + i phi_ss) + phi_st^2) with
    q = phi_sigma/sigma, built from the bare terms f_0..f_J; every f_j
    beyond J is taken as 0. Only Im E_k, the sigma^(2k) coefficient that
    the recursion solves for f_(k+1), is formed, at ``cap``; the f_j
    supplied must have caps >= cap + 2 for every differentiated term
    actually used. A ``state`` from an earlier call whose terms were a
    prefix of these keeps its finished P and I slots, so only the new ones
    are computed.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if state is None:
        state = PDESlots(n)
    elif state.n != n:
        raise ValueError("state was built for another n")
    return state.advance(terms, k, cap)


def extend_series(f0: TaylorPoly, n: int, K: int) -> SigmaExpansion:
    """Solve for f_1..f_K; returns the expansion at the common cap D - 2K."""
    _require_order(K, f0.cap)
    f0 = _require_flat_base(f0)
    cap_out = f0.cap - 2 * K
    uniform = tuple(poly_truncate(f, cap_out) for f in _solve(f0, n, K))
    return SigmaExpansion(n=n, terms=uniform)


def _require_order(K: int, D: int) -> None:
    """Reject an order K below 1, or a degree cap D too small for it."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if D < 2 * K:
        raise DegreeExhaustionError(
            f"degree cap {D} supports at most K = {D // 2}; requested {K}"
        )


def _solve(f0: TaylorPoly, n: int, K: int) -> list:
    """f_0..f_K with f_j at its native cap D - 2j: slot k of the PDE series
    is affine in f_(k+1), so f_(k+1) = -(2k+1)!/(2k+n) (1+f1^2)/R times
    that slot evaluated with f_(k+1) = 0."""
    D = f0.cap
    f1 = compute_f1(f0, n)
    r = compute_R(f0, n, f1=f1)
    one = poly_one(f1.cap, like=_one_scalar(f0))
    one_plus_f1sq = poly_add(one, poly_mul(f1, f1))
    pref = poly_mul(one_plus_f1sq, poly_reciprocal(r))  # (1+f1^2)/R
    terms = [f0, f1]
    state = PDESlots(n)
    for k in range(1, K):
        cap_k = D - 2 * (k + 1)
        e_k = regular_pde_even_series(terms, n, k, cap_k, state)
        step = poly_mul(e_k, poly_truncate(pref, cap_k))
        terms.append(
            poly_neg(_scale_ratio(step, math.factorial(2 * k + 1), 2 * k + n))
        )
    return terms


def linearity_probe(f0: TaylorPoly, n: int, k: int) -> float:
    """Max coefficient deviation of the affine law for the sigma^(2k)
    coefficient: perturbing f_{k+1} by a constant delta = 1e-3 must shift
    the coefficient by exactly delta * R/(1+f1^2) * (2k+n)/(2k+1)!."""
    delta = 1e-3
    if k < 1:
        raise ValueError("k must be >= 1")
    f0 = _require_flat_base(f0)
    D = f0.cap
    if D < 2 * (k + 1):
        raise DegreeExhaustionError("degree cap too small for this k")
    cap_k = D - 2 * (k + 1)
    terms = _solve(f0, n, k)
    f1 = terms[1]
    r = compute_R(f0, n, f1=f1)
    dconst = _const(delta, D, like=f0.coeffs[0])
    base = regular_pde_even_series(terms, n, k, cap_k)
    bumped = regular_pde_even_series(terms + [dconst], n, k, cap_k)
    one = poly_one(f1.cap, like=_one_scalar(f0))
    slope = poly_mul(poly_truncate(r, cap_k),
                     poly_reciprocal(poly_truncate(one + f1 * f1, cap_k)))
    predicted = _scale_ratio(slope, 2 * k + n, math.factorial(2 * k + 1))
    predicted = TaylorPoly(tuple(c * delta for c in predicted.coeffs))
    return _max_abs((bumped - base) - predicted)


def _const(c, cap, like):
    z = like * 0
    return TaylorPoly((z + c,) + tuple(z for _ in range(cap)))


# ---------------------------------------------------------------------------
# residual sampling


@dataclass(frozen=True)
class ResidualReport:
    max_pde: float
    samples: int
    grid: str


def pde_lhs_value(exp: SigmaExpansion, t, sigma, evaluator=None):
    """Pointwise singular PDE left side
    Im[(sigma + i phi_sigma)^(n-1)((1+i phi_tt)(1+i phi_ss) + phi_st^2)]."""
    jet = (evaluator or SigmaJetEvaluator(exp)).jet(t, sigma)
    # x + 1j * y is exact for float and mpf alike; complex() would round
    # mpf scalars through float
    a = sigma + 1j * jet.phi_sigma
    b = 1 + 1j * jet.phi_tt
    c = 1 + 1j * jet.phi_sigmasigma
    st = jet.phi_sigmat
    val = (a ** (exp.n - 1)) * (b * c + st * st)
    return val.imag


def pde_residual(exp: SigmaExpansion, t_values, sigma_values) -> ResidualReport:
    """Max |PDE left side| over the tensor grid of the given values; NaN
    when the left side is NaN anywhere."""
    ev = SigmaJetEvaluator(exp)
    vals = [abs(float(pde_lhs_value(exp, t, s, evaluator=ev)))
            for t in t_values for s in sigma_values]
    grid = (
        f"t[{float(min(t_values)):.4g},{float(max(t_values)):.4g}]x"
        f"sigma[{float(min(sigma_values)):.4g},{float(max(sigma_values)):.4g}]"
    )
    return ResidualReport(max_pde=float(np.max(vals)), samples=len(vals),
                          grid=grid)


# ---------------------------------------------------------------------------
# singular normal form check


def gt_g_value(n: int, sigma, z, f0pp, f1, f1p, f1pp):
    """The six-variable normal form G evaluated pointwise (float).

    z = (z00, z01, z10, z02, z11, z20), the placeholders for
    (u, u_t, sigma u_s, u_tt, sigma u_st, sigma^2 u_ss).
    """
    z00, z01, z10, z02, z11, z20 = z
    lead = (1 + 1j * (f1 + 2 * z00 + z10)) ** (n - 1)
    quad = sigma * sigma * (f1p + 2 * z01 + z11) ** 2
    fac_t = 1 + 1j * (f0pp + 0.5 * (f1pp + z02) * sigma * sigma)
    fac_s = 1 + 1j * (f1 + 2 * z00 + 4 * z10 + z20)
    return (lead * (quad + fac_t * fac_s)).imag


@dataclass(frozen=True)
class GTReport:
    n: int
    cond1_max: float
    cond2_max: float
    partials: tuple
    expected: tuple
    cond4_min: float
    passed: bool


def gt_hypotheses_check(f0: TaylorPoly, n: int) -> GTReport:
    """Numerical check of the singular normal form hypotheses.

    (1) G(t, 0) = 0 along the arc, to 1e-9 on 21 points of |t| <= 0.2;
    (2) the partials in the first-order sigma-placeholders vanish there at
    sigma = 0, to 1e-9; (3) the partials in (z20, z10, z00) at the base
    point are (1, n+3, 2n), to 1e-7; (4) the indicial polynomial
    k^2 + (n+3)k + 2n has no positive integer roots: its coefficients are
    positive, so its minimum over k >= 1 is 3n + 4, at k = 1.
    Derivatives are centered differences over the steps 1e-4, 1e-5, 1e-6,
    Richardson-extrapolated across consecutive steps.
    """
    t_span, t_points = 0.2, 21
    steps = (1e-4, 1e-5, 1e-6)
    tol_id, tol_partial = 1e-9, 1e-7
    f0 = _require_flat_base(f0)
    if f0.cap < 6:
        raise DegreeExhaustionError("gt check needs f0 cap >= 6")
    f1 = compute_f1(f0, n)
    f0pp = poly_derivative(poly_derivative(f0))
    f1p = poly_derivative(f1)
    f1pp = poly_derivative(f1p)

    def coeffs_at(t: float):
        return (
            float(poly_eval(f0pp, t)),
            float(poly_eval(f1, t)),
            float(poly_eval(f1p, t)),
            float(poly_eval(f1pp, t)),
        )

    t_grid = [
        -t_span + 2 * t_span * j / (t_points - 1) for j in range(t_points)
    ]
    zeros = (0.0,) * 6
    cond1 = 0.0
    cond2 = 0.0
    for t in t_grid:
        c0, c1, c1p, c1pp = coeffs_at(t)
        cond1 = max(cond1, abs(gt_g_value(n, 0.0, zeros, c0, c1, c1p, c1pp)))
        for var in (1, 4, 3):  # z01, z11, z02
            cond2 = max(
                cond2,
                abs(_fd_partial(n, 0.0, var, c0, c1, c1p, c1pp, steps)),
            )
    c0, c1, c1p, c1pp = coeffs_at(0.0)
    partials = tuple(
        _fd_partial(n, 0.0, var, c0, c1, c1p, c1pp, steps)
        for var in (5, 2, 0)  # z20, z10, z00
    )
    expected = (1.0, float(n + 3), float(2 * n))
    cond4_min = 1 + (n + 3) + 2 * n
    ok = (
        cond1 <= tol_id
        and cond2 <= tol_id
        and all(
            abs(p - e) <= tol_partial for p, e in zip(partials, expected)
        )
        and cond4_min > 0
    )
    return GTReport(
        n=n, cond1_max=cond1, cond2_max=cond2, partials=partials,
        expected=expected, cond4_min=float(cond4_min), passed=ok,
    )


def _fd_partial(n, sigma, var, f0pp, f1, f1p, f1pp, steps):
    def g_at(h):
        z = [0.0] * 6
        z[var] = h
        return gt_g_value(n, sigma, tuple(z), f0pp, f1, f1p, f1pp)

    ests = [(g_at(h) - g_at(-h)) / (2 * h) for h in steps]
    best = ests[0]
    for j in range(1, len(ests)):
        ratio = (steps[j - 1] / steps[j]) ** 2
        best = (ratio * ests[j] - ests[j - 1]) / (ratio - 1)
    return best


# ---------------------------------------------------------------------------
# radius estimate and charts


@dataclass(frozen=True)
class RadiusEstimate:
    C: float
    M: float
    rho_sigma: float
    fit_quality: float


def estimate_radius(exp: SigmaExpansion) -> RadiusEstimate:
    """Least-squares growth fit of the computed terms.

    The amplitude proxy for f_k is the l1 coefficient norm weighted by
    t_radius**j, an upper envelope of |f_k| on |t| <= t_radius = 0.15.
    This is insensitive to f_k(0) vanishing (odd arcs) and to rounding dust
    in individual coefficients.  Fits log(amp) against k for the envelope
    |f_k| <= C/M^k and log(amp/(2k)!) for the sigma-radius of the
    factorial-normalized series.  An identically zero tail yields the
    infinite-radius marker.
    """
    t_radius = 0.15
    ks, amps = [], []
    for k in range(1, exp.K + 1):
        a = 0.0
        w = 1.0
        for c in exp.terms[k].coeffs:
            a += abs(float(c)) * w
            w *= t_radius
        if a > 0.0:
            ks.append(float(k))
            amps.append(a)
    if len(ks) < 2:
        return RadiusEstimate(
            C=0.0, M=math.inf, rho_sigma=math.inf, fit_quality=1.0
        )
    ks_arr = np.asarray(ks)
    log_env = np.log(np.asarray(amps))
    log_norm = np.asarray(
        [
            math.log(a) - math.lgamma(2 * k + 1)
            for k, a in zip(ks_arr, amps)
        ]
    )
    slope_env, _ = np.polyfit(ks_arr, log_env, 1)
    slope_nrm, icept_nrm = np.polyfit(ks_arr, log_norm, 1)
    fitted = slope_nrm * ks_arr + icept_nrm
    ss_res = float(np.sum((log_norm - fitted) ** 2))
    ss_tot = float(np.sum((log_norm - log_norm.mean()) ** 2))
    quality = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    m_env = math.exp(-slope_env)
    c_env = max(
        a * m_env**k for k, a in zip(ks_arr, amps)
    )
    rho = math.exp(-slope_nrm / 2.0)
    return RadiusEstimate(
        C=float(c_env), M=float(m_env), rho_sigma=float(rho),
        fit_quality=float(quality),
    )


@dataclass(frozen=True)
class Chart:
    """One extension chart: branch and frame back into ambient coordinates,
    plus the solved expansion and its growth estimate."""

    n: int
    branch: int
    frame: Frame
    phi: SigmaExpansion
    radius: Optional[RadiusEstimate] = None
    center_param: Optional[float] = None

    def __post_init__(self):
        if not 0 <= self.branch < self.n:
            raise ValueError("branch must lie in [0, n)")
        if self.phi.n != self.n:
            raise ValueError("chart n and expansion n disagree")

    @property
    def K(self) -> int:
        return self.phi.K

    @property
    def D(self) -> int:
        """Degree budget the chart was built from (terms end at cap D - 2K)."""
        return self.phi.cap + 2 * self.phi.K

    @cached_property
    def reduced_map(self) -> "ReducedChartMap":
        """The chart's float64 ``ReducedChartMap``, whatever the chart's
        precision, built on first use and kept, so every float64 point
        evaluation of one chart shares one jet evaluator. Not a field:
        equality and hashing ignore it."""
        return ReducedChartMap(self)


def extend_arc(arc: ArcSpec, s0, n: int, K: int, D: int, branch: int = 0,
               ctx: Context = FLOAT64, with_radius: bool = True) -> Chart:
    """Normalize the arc at s0 and extend: the single-chart pipeline."""
    na = normalize_at(arc, s0, n, cap=D, ctx=ctx)
    exp = extend_series(na.f0, n, K)
    radius = estimate_radius(exp) if with_radius else None
    return Chart(
        n=n, branch=branch, frame=na.frame, phi=exp, radius=radius,
        center_param=float(s0),
    )


def build_atlas(arc: ArcSpec, n: int, K: int, D: int, spacing, branch: int = 0,
                ctx: Context = FLOAT64,
                gate: Optional[GateResult] = None) -> list:
    """Charts centered along the arc with branch continuity.

    Closed arcs must pass the existence gate; a caller that has already
    computed ``existence_gate(arc, n)`` passes it as ``gate``, so the
    tangent winding is not computed twice. ``branch`` in [0, n) is the
    branch of the first chart. The effective branch of each chart follows
    the unwrapped tangent angle so that neighbouring charts extend each
    other rather than jumping to a different sheet; each full turn of the
    tangent shifts the branch index by 2 mod n.
    """
    spacing = float(spacing)
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    if not 0 <= branch < n:
        raise ValueError("branch must lie in [0, n)")
    # before the gate, so that a bad order is not reported as an obstruction
    _require_order(K, D)
    if arc.closed:
        if gate is None:
            gate = existence_gate(arc, n)
        if not gate.ok:
            raise GateObstructionError(
                f"closed arc obstruction: branch shift {gate.shift} mod {n}"
            )
        period = float(arc.period)
        count = max(1, math.ceil(period / spacing - 1e-9))
        eff = period / count
        centers = [j * eff for j in range(count)]
    else:
        lo, hi = float(arc.domain[0]), float(arc.domain[1])
        count = max(1, math.ceil((hi - lo) / spacing - 1e-9))
        eff = (hi - lo) / count
        centers = [lo + (j + 0.5) * eff for j in range(count)]
    # dense unwrap grid through the centers
    refine = 16
    if len(centers) == 1:
        dense = [centers[0]]
    else:
        m = refine * (len(centers) - 1) + 1
        step = (centers[-1] - centers[0]) / (m - 1)
        dense = [centers[0] + step * j for j in range(m)]
    betas = tangent_angles(arc, dense)
    charts = []
    for j, s in enumerate(centers):
        beta = betas[j * refine]
        chi_unwrapped = -beta
        chi_principal = chi_unwrapped % (2 * math.pi)
        wraps = round((chi_unwrapped - chi_principal) / (2 * math.pi))
        j_eff = (branch + 2 * wraps) % n
        charts.append(
            extend_arc(
                arc, ctx.real(s), n, K, D, branch=j_eff, ctx=ctx,
            )
        )
    return charts


class ReducedChartMap:
    """Evaluation of the chart surface in reduced coordinates (w, zeta),
    with the analytic Jacobian. Ambient distance between same-direction
    points equals the reduced distance, which is what the overlap
    measurement needs.

    The chart's coefficients and frame are cast into ``ctx`` when the map
    is built, so the map computes in ``ctx`` whatever the chart's own
    precision. ``point`` takes scalars of that context or, on a float64
    map, numpy float64 arrays of equal shape, which it evaluates in one
    pass since the jet evaluator works elementwise; each element equals
    the scalar call at that (t, sigma) bit for bit, zero signs included.
    """

    def __init__(self, chart: Chart, ctx: Context = FLOAT64):
        self.ctx = ctx
        terms = tuple(TaylorPoly(tuple(ctx.real(c) for c in f.coeffs))
                      for f in chart.phi.terms)
        self.ev = SigmaJetEvaluator(SigmaExpansion(n=chart.n, terms=terms))
        n = chart.n
        theta = ctx.real(chart.frame.theta)
        self.w_phase = ctx.exp_i(-n * theta)
        pi = ctx.pi()
        self.z_phase = ctx.exp_i(theta + chart.branch * pi / n)
        a = chart.frame.a
        self.a = ctx.make_complex(ctx.real(a.real), ctx.real(a.imag))

    def point(self, t, sigma):
        jet = self.ev.jet(t, sigma)
        w_g = self.ctx.make_complex(t, jet.phi_t)
        z_g = self.ctx.make_complex(sigma, jet.phi_sigma)
        return (complex_product(self.w_phase, w_g - self.a),
                complex_product(self.z_phase, z_g))

    def point_and_jacobian(self, t, sigma):
        jet = self.ev.jet(t, sigma)
        one = (t * 0) + 1
        w_g = self.ctx.make_complex(t, jet.phi_t)
        z_g = self.ctx.make_complex(sigma, jet.phi_sigma)
        w = self.w_phase * (w_g - self.a)
        z = self.z_phase * z_g
        dw_dt = self.w_phase * self.ctx.make_complex(one, jet.phi_tt)
        dw_ds = self.w_phase * self.ctx.make_complex(t * 0, jet.phi_sigmat)
        dz_dt = self.z_phase * self.ctx.make_complex(t * 0, jet.phi_sigmat)
        dz_ds = self.z_phase * self.ctx.make_complex(one, jet.phi_sigmasigma)
        return (w, z), (dw_dt, dw_ds, dz_dt, dz_ds)


def overlap_agreement(c1: Chart, c2: Chart, sigma_max, samples: int = 24,
                      t_halfwidth=None, t_halfwidth_other=None,
                      ctx: Context = FLOAT64, gn_iterations: int = 30) -> float:
    """Sup over sampled points of chart 1 of the distance to chart 2.

    Sample points on chart 1 are projected onto chart 2 by Gauss-Newton in
    reduced coordinates (the direction vector drops out of the distance for
    SO(n)-orbit surfaces). Each projection starts from the nearest point of
    a 21 x 11 (t, sigma) seed grid on chart 2; the grid is evaluated once
    per pair with chart 2's float64 ``reduced_map`` whatever ``ctx``, and
    only the samples and Gauss-Newton run in ``ctx``. Points whose
    projection leaves chart 2's window are not in the overlap and are
    skipped, as are those whose foot is not finite; if no sample projects
    into chart 2 the domains are disjoint, which is an error. A non-finite
    sample point, or a non-finite distance at a counted sample, raises
    ``NonFiniteError`` rather than passing as a sup.
    """
    if not float(sigma_max) > 0:
        raise ValueError("sigma_max must be positive")
    sigma_max = ctx.real(sigma_max)
    w1 = ctx.real(t_halfwidth if t_halfwidth is not None
                  else 4 * float(sigma_max))
    w2 = ctx.real(t_halfwidth_other if t_halfwidth_other is not None
                  else 4 * float(sigma_max))
    nt = max(2, int(round(math.sqrt(samples))))
    ns = max(2, int(math.ceil(samples / nt)))
    map1, map2 = (c.reduced_map if ctx.name == FLOAT64.name
                  else ReducedChartMap(c, ctx) for c in (c1, c2))
    seed_t = [
        -float(w2) + 2 * float(w2) * j / 20 for j in range(21)
    ]
    seed_s = [
        -float(sigma_max) + 2 * float(sigma_max) * j / 10 for j in range(11)
    ]
    # flattened t-outer, sigma-inner; argmin keeps the first of equal minima
    T, S = np.meshgrid(seed_t, seed_s, indexing="ij")
    grid_w, grid_z = c2.reduced_map.point(T.ravel(), S.ravel())
    worst = None
    hit = 0
    for it in range(nt):
        for js in range(ns):
            t1 = -w1 + 2 * w1 * it / (nt - 1)
            s1 = -sigma_max + 2 * sigma_max * js / (ns - 1)
            p1 = map1.point(t1, s1)
            p1f = (complex(p1[0]), complex(p1[1]))
            if not np.all(np.isfinite(p1f)):
                raise NonFiniteError(
                    f"chart 1 is not finite at (t, sigma) = "
                    f"({float(t1):.6g}, {float(s1):.6g})"
                )
            nearest = int(np.argmin(np.abs(grid_w - p1f[0]) ** 2
                                    + np.abs(grid_z - p1f[1]) ** 2))
            i, j = divmod(nearest, len(seed_s))
            t2, s2 = ctx.real(seed_t[i]), ctx.real(seed_s[j])
            t2, s2, dist = _gauss_newton_project(map2, p1, t2, s2,
                                                 gn_iterations)
            # written so that a NaN foot fails the window test
            if not (float(abs(t2)) <= 1.05 * float(w2)
                    and float(abs(s2)) <= 1.2 * float(sigma_max)):
                continue
            hit += 1
            d = float(dist)
            if not math.isfinite(d):
                raise NonFiniteError(
                    f"overlap distance {d} at chart-1 sample "
                    f"(t, sigma) = ({float(t1):.6g}, {float(s1):.6g})"
                )
            if worst is None or d > worst:
                worst = d
    if hit == 0:
        raise CoverageError("charts have disjoint domains; no overlap")
    return worst


def _gauss_newton_project(cmap: ReducedChartMap, target, t, s,
                          iterations: int):
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
