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
checked in ``gt_hypotheses_check``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
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
)
from .precision import (
    FLOAT64,
    Context,
    PythonScalars,
    abs_squared,
    coefficient_array,
    complex_product,
    finite_coefficients,
    log_weighted_norm,
    truncated_product,
)
from .series import (
    ComplexSeries,
    SigmaExpansion,
    TaylorPoly,
    analytic_compose,
    complex_int_pow,
    cs_mul,
    poly_add,
    poly_derivative,
    poly_eval,
    poly_from,
    poly_mul,
    poly_neg,
    poly_one,
    poly_reciprocal,
    poly_scale,
    poly_truncate,
    poly_zero,
)


def _scale_ratio(p: TaylorPoly, num: int, den: int) -> TaylorPoly:
    return TaylorPoly(p.array * num / den)


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
    alpha_over_n = TaylorPoly(alpha.array / n)
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

    Slots are the coefficient arrays of ``TaylorPoly`` (``.array``), a
    complex slot an (re, im) pair. Slot 0 is the arrays of ``TaylorPoly``
    results; past it the rows call ``truncated_product`` on the slots in
    that arithmetic's order (a - b as a + (-b)), bit for bit, and each
    Im E_k is wrapped as a ``TaylorPoly`` without a conversion. A dropping
    cap slices each slot; none is updated in place.
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
        """Drop every slot and build slot 0, by the polynomial arithmetic."""
        self.cap = cap
        zero = terms[0].coeffs[0] * 0
        self.zeros = poly_zero(cap, like=zero).array
        f1 = terms[1] if len(terms) > 1 else None
        self.open = 0 if f1 is None else None
        t0, q0 = self._term(terms[0], 2, 1), self._term(f1, 0, 1)
        tp, qp = TaylorPoly(t0), TaylorPoly(q0)
        one = poly_one(cap, like=zero + 1)
        w0, inv = ComplexSeries(one, qp), poly_reciprocal(one + qp * qp)
        w0_pow = complex_int_pow(w0, self.n - 2)
        self.w0_inv, self.w0_pow, p0, i0 = (
            (s.re.array, s.im.array) for s in (
                ComplexSeries(inv, -(qp * inv)), w0_pow, cs_mul(w0_pow, w0),
                ComplexSeries(one - tp * qp, tp + qp)))
        self.t, self.o, self.q, self.b = [t0], [], [q0], [q0]
        self.p, self.i = [p0], [i0]

    def _truncate(self, cap: int):
        c = cap + 1
        self.t, self.o, self.q, self.b = (
            [x[:c] for x in xs] for xs in (self.t, self.o, self.q, self.b))
        self.p, self.i = (
            [(re[:c], im[:c]) for re, im in xs] for xs in (self.p, self.i))
        self.w0_inv, self.w0_pow = (
            (re[:c], im[:c]) for re, im in (self.w0_inv, self.w0_pow))
        self.zeros, self.cap = self.zeros[:c], cap

    def _term(self, f: Optional[TaylorPoly], derivs: int, fact: int):
        """f^(derivs)/fact at the slot cap; zero for a missing term."""
        if f is None:
            return self.zeros
        a = poly_truncate(f, self.cap + derivs).array
        for _ in range(derivs):
            a = a[1:] * np.arange(1, len(a))
        return coefficient_array(a / fact)

    def _slot(self, k: int, terms):
        """Slot k >= 1 from the slots below it."""
        n, mul, zp = self.n, truncated_product, self.zeros
        fk = terms[k] if k < len(terms) else None
        fk1 = terms[k + 1] if k + 1 < len(terms) else None
        self.t.append(self._term(fk, 2, math.factorial(2 * k)))
        self.o.append(self._term(fk, 1, math.factorial(2 * k - 1)))
        self.q.append(zp)
        self.b.append(zp)
        # Miller's recurrence without its j = k term
        sr = si = zp
        for j in range(1, k):
            qj = self.q[j] * (n * j - k)
            pr, pi = self.p[k - j]
            sr = sr + -mul(qj, pi)
            si = si + mul(qj, pr)
        (vr, vi), (sr, si) = self.w0_inv, _slot_pair(sr, si)
        self.p.append(_slot_pair((mul(vr, sr) + -mul(vi, si)) / k,
                                 (mul(vr, si) + mul(vi, sr)) / k))
        # phi_tt, phi_ss slots j >= 1 are imaginary, phi_st/sigma real
        re = zp
        for j in range(1, k + 1):
            re = re + -mul(self.t[j], self.b[k - j])
        for j in range(k):
            re = re + mul(self.o[j], self.o[k - 1 - j])
        self.i.append(_slot_pair(re, self.t[k]))
        if fk1 is not None:
            self._close(k, fk1)
        elif self.open is None:
            self.open = k

    def _e(self, k: int) -> TaylorPoly:
        # summed afresh from finished P and I slots: adding the rank-one
        # parts to E_k instead doubles the rounding in its cancelling
        # imaginary part. Im only, in the order of cs_mul and cs_add.
        p, i, mul = self.p, self.i, truncated_product
        ek = mul(p[0][0], i[k][1]) + mul(p[0][1], i[k][0])
        for j in range(1, k + 1):
            ek = ek + (mul(p[j][0], i[k - j][1]) + mul(p[j][1], i[k - j][0]))
        return TaylorPoly(ek)

    def _close(self, k: int, f: TaylorPoly):
        """Add the parts of P_k and I_k that f = f_(k+1) contributes."""
        mul = truncated_product
        q = self._term(f, 0, math.factorial(2 * k + 1))
        b = self._term(f, 0, math.factorial(2 * k))
        self.q[k], self.b[k] = q, b
        qn = q * (self.n - 1)
        (wr, wi), (pr, pi), (ir, ii) = self.w0_pow, self.p[k], self.i[k]
        self.p[k] = _slot_pair(pr + -mul(qn, wi), pi + mul(qn, wr))
        self.i[k] = _slot_pair(ir + -mul(self.t[0], b), ii + b)
        self.open = None


def _slot_pair(re, im) -> tuple:
    """(re, im) as ``TaylorPoly`` holds them: Python floats as float64."""
    return coefficient_array(re), coefficient_array(im)


# float64 slots give IEEE results without a numpy warning, as Python
# floats do
@np.errstate(over="ignore", invalid="ignore")
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


@np.errstate(over="ignore", invalid="ignore")
def _solve(f0: TaylorPoly, n: int, K: int) -> list:
    """f_0..f_K with f_j at its native cap D - 2j: slot k of the PDE series
    is affine in f_(k+1), so f_(k+1) = -(2k+1)!/(2k+n) (1+f1^2)/R times
    that slot evaluated with f_(k+1) = 0."""
    D = f0.cap
    f1 = _finite(compute_f1(f0, n), 1)
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
        terms.append(_finite(poly_neg(
            _scale_ratio(step, math.factorial(2 * k + 1), 2 * k + n)), k + 1))
    return terms


def _finite(f: TaylorPoly, k: int) -> TaylorPoly:
    """f = f_k, or NonFiniteError if a coefficient is NaN or infinite."""
    if not finite_coefficients(f.array):
        raise NonFiniteError(f"f_{k} has a NaN or infinite coefficient")
    return f


def linearity_probe(f0: TaylorPoly, n: int, k: int) -> float:
    """Max coefficient deviation of the affine law for the sigma^(2k)
    coefficient: perturbing f_{k+1} by a constant delta = 1e-3 must shift
    the coefficient by exactly delta * R/(1+f1^2) * (2k+n)/(2k+1)!.

    Both sides take fresh slots, which at float64 may differ from the
    recursion's reused ones in the last bit: a product truncated after
    the convolution, ``np.convolve(a, b)[:d]``, is not always the one of
    the truncated factors. That is far below the 1e-11 the law is held to.
    """
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
    dconst = poly_from([f0.coeffs[0] * 0 + delta], D)
    base = regular_pde_even_series(terms, n, k, cap_k)
    bumped = regular_pde_even_series(terms + [dconst], n, k, cap_k)
    one = poly_one(f1.cap, like=_one_scalar(f0))
    slope = poly_mul(poly_truncate(r, cap_k),
                     poly_reciprocal(poly_truncate(one + f1 * f1, cap_k)))
    predicted = poly_scale(
        _scale_ratio(slope, 2 * k + n, math.factorial(2 * k + 1)), delta)
    return _max_abs((bumped - base) - predicted)


# ---------------------------------------------------------------------------
# residual sampling


@dataclass(frozen=True)
class ResidualReport:
    max_pde: float
    samples: int
    grid: str


def pde_lhs_value(exp: SigmaExpansion, t, sigma):
    """Pointwise singular PDE left side
    Im[(sigma + i phi_sigma)^(n-1)((1+i phi_tt)(1+i phi_ss) + phi_st^2)];
    on an mp chart, taken as in ``pde_residual``, an mpf or array of them."""
    ev = exp.jet_evaluator
    sigma = ev.enter(sigma)
    if ev.kernel is PythonScalars:
        jet = ev.jet(t, sigma)
        return _pde_lhs(exp.n, sigma, jet.phi_sigma, jet.phi_tt,
                        jet.phi_sigmasigma, jet.phi_sigmat)
    shape, points = ev.jet(np.asarray(t), sigma, _lhs=True)
    return np.array([ev.kernel.mp.make_mpf(_pde_lhs(exp.n, *p, ev.kernel))
                     for p in points], dtype=object).reshape(shape)[()]


def _pde_lhs(n, sigma, phi_sigma, phi_tt, phi_ss, phi_st, k=PythonScalars):
    """The PDE left side from the jet by the complex operations of the
    scalar kernel k: on scalars or, element by element and bit for bit, on
    float64 arrays, and on an mp kernel's raw tuples as on mpc."""
    # i * x is exact for float and mpf alike; complex() would round
    # mpf scalars through float
    a = k.add_re(k.mul_re(k.i, phi_sigma), sigma)
    b = k.add_re(k.mul_re(k.i, phi_tt), k.one)
    c = k.add_re(k.mul_re(k.i, phi_ss), k.one)
    return k.imag(k.cmul(k.cpow(a, n - 1), k.add_re(k.cmul(b, c),
                                                    k.mul(phi_st, phi_st))))


def pde_residual(exp: SigmaExpansion, t_values, sigma_values) -> ResidualReport:
    """Max |PDE left side| over the tensor grid of the given values; NaN
    when the left side is NaN anywhere.

    One jet call evaluates the grid, a t column against a sigma row, so
    each f_k is evaluated once per t. float64 jets give the left side in
    one array expression, equal to ``pde_lhs_value`` at every point, and
    object jets (of Fraction) point by point (``_lanewise``). mp jets run
    the four chains the left side reads, which is taken on their raw tuples
    (no mpf or mpc made). sigma enters the jets' context first, as the left
    side reads it too.
    """
    ev = exp.jet_evaluator
    T = np.asarray(t_values)[:, None]
    S = ev.enter(np.asarray(sigma_values))[None, :]
    # IEEE semantics, as on Python floats: an infinite or NaN jet gives an
    # infinite or NaN residual, without a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if ev.kernel is PythonScalars:
            jet = ev.jet(T, S)
            # the jet's lanes first: they, not S, tell a chart's objects
            lhs = _lanewise(lambda *p: _pde_lhs(exp.n, p[4], *p[:4]), 1,
                            jet.phi_sigma, jet.phi_tt, jet.phi_sigmasigma,
                            jet.phi_sigmat, S)
        else:
            lhs = [ev.kernel.to_float(_pde_lhs(exp.n, *p, ev.kernel))
                   for p in ev.jet(T, S, _lhs=True)[1]]
        vals = np.abs(np.asarray(lhs, dtype=float))
    grid = (
        f"t[{float(min(t_values)):.4g},{float(max(t_values)):.4g}]x"
        f"sigma[{float(min(sigma_values)):.4g},{float(max(sigma_values)):.4g}]"
    )
    return ResidualReport(max_pde=float(np.max(vals)), samples=T.size * S.size,
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


def gt_partials(n: int, sigma, f0pp, f1, f1p, f1pp) -> tuple:
    """The partials of ``gt_g_value`` in (z00, z01, z10, z02, z11, z20) at
    z = 0, in closed form: with u = f1 + 2 z00 + z10, the leading factor
    (1 + i u)^(n-1) has u-derivative (n-1) i (1 + i u)^(n-2), and the rest
    of G is a polynomial in the z whose linear terms are read off."""
    s2 = sigma * sigma
    fac_s = 1 + 1j * f1
    lead, dlead = fac_s ** (n - 1), (n - 1) * 1j * fac_s ** (n - 2)
    fac_t = 1 + 1j * (f0pp + 0.5 * f1pp * s2)
    rest = s2 * f1p * f1p + fac_t * fac_s
    return tuple(d.imag for d in (
        2 * dlead * rest + lead * fac_t * 2j,   # z00
        lead * 4 * s2 * f1p,                    # z01
        dlead * rest + lead * fac_t * 4j,       # z10
        lead * fac_s * 0.5j * s2,               # z02
        lead * 2 * s2 * f1p,                    # z11
        lead * fac_t * 1j,                      # z20
    ))


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
    The partials are the closed forms of ``gt_partials``.
    """
    t_span, t_points = 0.2, 21
    tol_id, tol_partial = 1e-9, 1e-7
    f0 = _require_flat_base(f0)
    if f0.cap < 6:
        raise DegreeExhaustionError("gt check needs f0 cap >= 6")
    f1 = compute_f1(f0, n)
    f0pp = poly_derivative(poly_derivative(f0))
    f1p = poly_derivative(f1)
    f1pp = poly_derivative(f1p)

    def coeffs_at(t: float):
        return [float(poly_eval(p, t)) for p in (f0pp, f1, f1p, f1pp)]

    t_grid = [
        -t_span + 2 * t_span * j / (t_points - 1) for j in range(t_points)
    ]
    zeros = (0.0,) * 6
    cond1 = 0.0
    cond2 = 0.0
    for t in t_grid:
        c = coeffs_at(t)
        cond1 = max(cond1, abs(gt_g_value(n, 0.0, zeros, *c)))
        d = gt_partials(n, 0.0, *c)
        cond2 = max(cond2, abs(d[1]), abs(d[4]), abs(d[3]))  # z01, z11, z02
    d = gt_partials(n, 0.0, *coeffs_at(0.0))
    partials = (d[5], d[2], d[0])  # z20, z10, z00
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
    infinite-radius marker. An mp amplitude past float range enters the
    fits by its log (``log_weighted_norm``), and C may round to inf.
    """
    t_radius = 0.15
    ks, amps, logs = [], [], []
    for k in range(1, exp.K + 1):
        a, w = 0.0, 1.0
        for c in exp.terms[k].coeffs:
            a += abs(float(c)) * w
            w *= t_radius
        if a == 0.0:
            continue
        log_a = math.log(a) if a < math.inf else log_weighted_norm(
            exp.terms[k].array, t_radius)
        if not math.isfinite(log_a):
            raise NonFiniteError(f"the amplitude of f_{k} is {a} in float")
        ks.append(float(k))
        amps.append(a)
        logs.append(log_a)
    if len(ks) < 2:
        return RadiusEstimate(C=0.0, M=math.inf, rho_sigma=math.inf,
                              fit_quality=1.0)
    ks_arr = np.asarray(ks)
    log_env = np.where(np.isinf(amps), logs, np.log(np.asarray(amps)))
    log_norm = np.asarray([log_a - math.lgamma(2 * k + 1)
                           for k, log_a in zip(ks_arr, logs)])
    slope_env, _ = np.polyfit(ks_arr, log_env, 1)
    slope_nrm, icept_nrm = np.polyfit(ks_arr, log_norm, 1)
    fitted = slope_nrm * ks_arr + icept_nrm
    ss_res = float(np.sum((log_norm - fitted) ** 2))
    ss_tot = float(np.sum((log_norm - log_norm.mean()) ** 2))
    quality = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    m_env = math.exp(-slope_env)
    # an amplitude past float range stays inf, also where M**k underflows
    c_env = max(a * m_env**k if a < math.inf else a
                for k, a in zip(ks_arr, amps))
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

    The chart is the gradient graph {x + i grad phi(x)} of its potential
    (Harvey and Lawson, Acta Math. 148, 1982) turned by its frame:
    w / w_phase + a = t + i phi_t and zeta / z_phase = sigma + i phi_sigma,
    whose real parts ``graph_coordinates`` returns.

    The chart's coefficients and frame are cast into ``ctx`` when the map
    is built, so the map computes in ``ctx`` whatever the chart's own
    precision; a float64 chart's float64 map shares the chart's own jet
    evaluator. ``point`` takes scalars of that context or numpy arrays of
    equal shape (float64 on a float64 map, object arrays of mpf on an mp
    map), which it evaluates in one pass since the jet evaluator works
    elementwise; each element equals the scalar call at that (t, sigma)
    bit for bit, zero signs included.
    """

    def __init__(self, chart: Chart, ctx: Context = FLOAT64):
        self.ctx = ctx
        phi = chart.phi
        if ctx.name != FLOAT64.name or any(f.array.dtype != float
                                           for f in phi.terms):
            phi = SigmaExpansion(n=chart.n, terms=tuple(
                TaylorPoly(tuple(ctx.real(c) for c in f.coeffs))
                for f in phi.terms))
        self.ev = phi.jet_evaluator
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
        """``point`` and its partials in t and sigma, (dw_dt, dw_ds,
        dz_dt, dz_ds), on scalars or arrays as ``point`` takes them."""
        jet = self.ev.jet(t, sigma)
        zero = t * 0
        one = zero + 1
        c = self.ctx.make_complex
        return ((complex_product(self.w_phase, c(t, jet.phi_t) - self.a),
                 complex_product(self.z_phase, c(sigma, jet.phi_sigma))),
                (complex_product(self.w_phase, c(one, jet.phi_tt)),
                 complex_product(self.w_phase, c(zero, jet.phi_sigmat)),
                 complex_product(self.z_phase, c(zero, jet.phi_sigmat)),
                 complex_product(self.z_phase, c(one, jet.phi_sigmasigma))))

    def graph_coordinates(self, w, zeta):
        """(Re(w conj(w_phase) + a), Re(zeta conj(z_phase))) on float64 or
        object (mpc) lanes: ``point``'s (t, sigma), up to rounding."""
        return _lanewise(lambda gw, gz: (gw.real, gz.real), 2,
                         complex_product(w, self.w_phase.conjugate()) + self.a,
                         complex_product(zeta, self.z_phase.conjugate()))


def overlap_agreement(c1: Chart, c2: Chart, sigma_max, samples: int = 24,
                      t_halfwidth=None, t_halfwidth_other=None,
                      ctx: Context = FLOAT64, gn_iterations: int = 30) -> float:
    """Sup over sampled points of chart 1 of the distance to chart 2.

    ``samples`` is a target: the samples are an nt x ns grid in (t, sigma),
    nt = max(2, round(sqrt(samples))) and ns = max(2, ceil(samples / nt)),
    so the default 24 samples 25 points. Sample points on chart 1 are
    projected onto chart 2 by Gauss-Newton in reduced coordinates (the
    direction vector drops out of the distance for SO(n)-orbit surfaces),
    in ``ctx`` and together, as arrays (object arrays of mp scalars in an
    mp ``ctx``). Each projection starts at chart 2's ``graph_coordinates``
    of its sample, the foot itself when the sample lies on chart 2; no seed
    grid is searched. Points whose projection leaves chart 2's window are
    not in the overlap and are skipped, as are those whose foot is not
    finite; if no sample projects into chart 2 the domains are disjoint,
    which is an error. A non-finite sample point, or a non-finite distance
    at a counted sample, raises ``NonFiniteError`` rather than passing as a
    sup; of several, the first in t-outer, sigma-inner order.
    """
    if not float(sigma_max) > 0:
        raise ValueError("sigma_max must be positive")
    sigma_max = ctx.real(sigma_max)
    w1, w2 = (ctx.real(4 * float(sigma_max) if w is None else w)
              for w in (t_halfwidth, t_halfwidth_other))
    nt = max(2, int(round(math.sqrt(samples))))
    ns = max(2, int(math.ceil(samples / nt)))
    map1, map2 = (c.reduced_map if ctx.name == FLOAT64.name
                  else ReducedChartMap(c, ctx) for c in (c1, c2))
    lanes = partial(np.array, dtype=float if ctx.name == FLOAT64.name
                    else object)
    # the samples, flattened t-outer, sigma-inner
    t1 = lanes([-w1 + 2 * w1 * it / (nt - 1)
                for it in range(nt) for _ in range(ns)])
    s1 = lanes([-sigma_max + 2 * sigma_max * js / (ns - 1)
                for _ in range(nt) for js in range(ns)])
    p1 = map1.point(t1, s1)
    p1w, p1z = (np.asarray(p, dtype=complex) for p in p1)
    finite = np.isfinite(p1w) & np.isfinite(p1z)
    live = np.flatnonzero(finite)
    target = (p1[0][live], p1[1][live])
    t2, s2, dist = _gauss_newton_project(
        map2, target, *map2.graph_coordinates(*target), gn_iterations)
    # written so that a NaN foot fails the window test
    inside = ((np.asarray(abs(t2), dtype=float) <= 1.05 * float(w2))
              & (np.asarray(abs(s2), dtype=float)
                 <= 1.2 * float(sigma_max)))
    counted = np.zeros(t1.size, dtype=bool)
    counted[live] = inside
    d = np.full(t1.size, math.nan)
    d[live] = np.asarray(dist, dtype=float)
    bad = np.flatnonzero(~finite | (counted & ~np.isfinite(d)))
    if bad.size:
        k = bad[0]
        at = f"(t, sigma) = ({float(t1[k]):.6g}, {float(s1[k]):.6g})"
        if not finite[k]:
            raise NonFiniteError(f"chart 1 is not finite at {at}")
        raise NonFiniteError(f"overlap distance {d[k]} at chart-1 sample "
                             f"{at}")
    if not counted.any():
        raise CoverageError("charts have disjoint domains; no overlap")
    return float(np.max(d[counted]))


def _gauss_newton_project(cmap: ReducedChartMap, target, t, s,
                          iterations: int):
    """Project the points target = (w, zeta), arrays of one lane per
    point, onto the chart of ``cmap`` by Gauss-Newton from the seeds
    (t, s); returns the feet (t, s) and their distances.

    Each lane takes the steps a projection of its point alone would take,
    with the same rounding, and stops where that would: when the normal
    matrix is singular or not finite, keeping its foot, or after a step
    below 100 eps. Later iterations evaluate the running lanes only.
    """
    ctx = cmap.ctx
    tiny = float(ctx.real(ctx.eps) * 100)
    t, s = t.copy(), s.copy()
    live = np.arange(t.size)
    # IEEE semantics, as on Python floats: a diverging lane overflows to
    # infinity or NaN, without a numpy warning, and then stops
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iterations):
            if not live.size:
                break
            (w, z), jac = cmap.point_and_jacobian(t[live], s[live])
            a11, a22, a12, b1, b2 = _lanewise(
                _normal_equations, 5, *jac, w - target[0][live],
                z - target[1][live])
            det = a11 * a22 - a12 * a12
            ok = np.asarray(abs(det), dtype=float) > 0
            live, a11, a22, a12, b1, b2, det = (
                x[ok] for x in (live, a11, a22, a12, b1, b2, det))
            dt = (b1 * a22 - b2 * a12) / det
            ds = (b2 * a11 - b1 * a12) / det
            t[live] = t[live] + dt
            s[live] = s[live] + ds
            step = (np.asarray(abs(dt), dtype=float)
                    + np.asarray(abs(ds), dtype=float))
            live = live[~(step < tiny)]
        w, z = cmap.point(t, s)
        dist = _lanewise(lambda rw, rz: ctx.sqrt(abs_squared(rw)
                                                 + abs_squared(rz)),
                         1, w - target[0], z - target[1])
    return t, s, dist


def _normal_equations(dw_dt, dw_ds, dz_dt, dz_ds, rw, rz):
    """The Gauss-Newton normal equations [[a11, a12], [a12, a22]] (dt, ds)
    = (b1, b2) from the Jacobian and the residual (rw, rz)."""
    a11 = abs_squared(dw_dt) + abs_squared(dz_dt)
    a22 = abs_squared(dw_ds) + abs_squared(dz_ds)
    a12 = (complex_product(dw_dt.conjugate(), dw_ds)
           + complex_product(dz_dt.conjugate(), dz_ds)).real
    b1 = -(complex_product(dw_dt.conjugate(), rw)
           + complex_product(dz_dt.conjugate(), rz)).real
    b2 = -(complex_product(dw_ds.conjugate(), rw)
           + complex_product(dz_ds.conjugate(), rz)).real
    return a11, a22, a12, b1, b2


def _lanewise(fn, nout: int, *lanes):
    """fn on float64 lanes, which it takes as arrays, or applied lane by
    lane to object (mp) lanes, whose ``.real`` numpy cannot take."""
    if lanes[0].dtype == object:
        return np.frompyfunc(fn, len(lanes), nout)(*lanes)
    return fn(*lanes)
