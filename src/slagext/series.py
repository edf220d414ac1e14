"""Truncated Taylor series algebra.

Everything downstream works with polynomials truncated at a fixed degree cap
D: a ``TaylorPoly`` stores coefficients c0..cD of sum c_j t^j. Operations
never invent degrees: products truncate at the common cap, differentiation
lowers the cap by one, antidifferentiation raises it. Mixing caps is a shape
error so that degree bookkeeping mistakes fail loudly instead of silently
zero-padding.

Two composite structures are built on top: ``ComplexSeries``, a pair
(re, im) of equal-cap polynomials with truncated complex multiplication
and integer powers, and ``EvenSeries``, a series in sigma^2 whose
coefficients are ComplexSeries in t.

``SigmaExpansion`` is the public container for an extension
phi(t, sigma) = sum_k f_k(t) sigma^(2k) / (2k)!; the stored terms are the
bare f_k, the factorials are applied at evaluation time.

A ``TaylorPoly`` keeps its coefficients in one array: float64 when all are
Python floats, a ``precision.RawSlot`` of raw libmpf tuples for mpf of one
context, object dtype (Fraction, int) otherwise. That form picks every
kernel. Sums, negations, scalings and derivatives are array
expressions that take the same operations as the Python scalars would, so
every routine is exact over whichever field the inputs carry. ``poly_mul``
multiplies by ``precision.truncated_product``: a numpy convolution on
float64, one exact big-integer product rounded once per coefficient for
slots, and the plain Cauchy loop otherwise; the recursion's slot rows
(``engine.PDESlots``) call it on the same arrays directly. The series loops
run on ``precision.scalar_kernel``, raw on slots. Jets, at a point or on
arrays, take the f_k and their derivatives by ``polynomial_values``, then
Horner in sigma^2 on the six partials: stacked in one array, or on a
slot's raw tuples, t and sigma entered into its context first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Sequence

import numpy as np

from .errors import (
    CompositionDomainError,
    PrecisionError,
    SeriesShapeError,
    SingularDivisionError,
)
from .precision import (FLOAT64, PythonScalars, coefficient_array,
                        decimal_strings, horner, polynomial_values,
                        scalar_kernel, truncated_product)


class TaylorPoly:
    """Coefficients c0..cD of a degree-capped Taylor polynomial.

    ``array`` holds them as ``precision.coefficient_array`` makes them, and
    the arithmetic runs on it. ``coeffs`` is the same coefficients as a
    tuple of Python scalars, made once on first read; equality and hashing
    compare it. Neither is ever modified."""

    __slots__ = ("array", "_coeffs")

    def __init__(self, coeffs):
        self._coeffs = None if hasattr(coeffs, "dtype") else tuple(coeffs)
        self.array = coefficient_array(
            coeffs if self._coeffs is None else self._coeffs)
        if hasattr(self.array, "mp"):  # a slot's mpf, as floats and ints enter
            self._coeffs = None
        if self.array.ndim != 1 or len(self.array) == 0:
            raise SeriesShapeError("a TaylorPoly needs at least one coefficient")

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            self._coeffs = tuple(self.array.tolist())
        return self._coeffs

    @property
    def cap(self) -> int:
        return len(self.array) - 1

    def __repr__(self) -> str:
        return f"TaylorPoly(coeffs={self.coeffs!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "TaylorPoly") -> "TaylorPoly":
        return poly_add(self, other)

    def __sub__(self, other: "TaylorPoly") -> "TaylorPoly":
        return poly_add(self, poly_neg(other))

    def __neg__(self) -> "TaylorPoly":
        return poly_neg(self)

    def __mul__(self, other):
        if isinstance(other, TaylorPoly):
            return poly_mul(self, other)
        return poly_scale(self, other)


def poly_from(coeffs: Sequence, cap: int | None = None) -> TaylorPoly:
    cs = list(coeffs)
    if cap is not None:
        zero = _zero_like(cs[0]) if cs else 0.0
        cs = cs[: cap + 1] + [zero] * (cap + 1 - len(cs))
    return TaylorPoly(cs)


def poly_zero(cap: int, like=0.0) -> TaylorPoly:
    return TaylorPoly((_zero_like(like),) * (cap + 1))


def poly_one(cap: int, like=1.0) -> TaylorPoly:
    return TaylorPoly((like * 1,) + (_zero_like(like),) * cap)


def _zero_like(x):
    return x * 0


def _check_same_cap(a: TaylorPoly, b: TaylorPoly, what: str):
    if len(a.array) != len(b.array):
        raise SeriesShapeError(f"{what}: degree caps differ "
                               f"({a.cap} vs {b.cap})")
    if getattr(a.array, "mp", None) is not getattr(b.array, "mp", None):
        raise PrecisionError(f"{what}: a slot beside another form")


def poly_add(a: TaylorPoly, b: TaylorPoly) -> TaylorPoly:
    _check_same_cap(a, b, "poly_add")
    return TaylorPoly(a.array + b.array)


def poly_neg(a: TaylorPoly) -> TaylorPoly:
    return TaylorPoly(-a.array)


def poly_scale(a: TaylorPoly, s) -> TaylorPoly:
    return TaylorPoly(a.array * s)


def poly_mul(a: TaylorPoly, b: TaylorPoly) -> TaylorPoly:
    """Cauchy product truncated at the common cap, by the multiplication
    kernel of the coefficients' scalar type (``truncated_product``)."""
    _check_same_cap(a, b, "poly_mul")
    return TaylorPoly(truncated_product(a.array, b.array))


def poly_truncate(a: TaylorPoly, cap: int) -> TaylorPoly:
    if cap > a.cap:
        raise SeriesShapeError(f"poly_truncate: cap {cap} above stored "
                               f"cap {a.cap}")
    return TaylorPoly(a.array[: cap + 1])


def poly_pad(a: TaylorPoly, cap: int) -> TaylorPoly:
    """Extend with exact zeros. Only valid when a is an exact polynomial,
    not a truncation of a longer series."""
    if cap < a.cap:
        raise SeriesShapeError(f"poly_pad: cap {cap} below stored cap {a.cap}")
    return TaylorPoly(a.coeffs + (_zero_like(a.coeffs[0]),) * (cap - a.cap))


def poly_derivative(a: TaylorPoly) -> TaylorPoly:
    """d/dt; the cap drops by one (a constant differentiates to cap-0 zero)."""
    if a.cap == 0:
        return TaylorPoly((_zero_like(a.coeffs[0]),))
    return TaylorPoly(a.array[1:] * np.arange(1, len(a.array)))


def poly_antiderivative(a: TaylorPoly) -> TaylorPoly:
    """Antiderivative with zero constant term; the cap rises by one."""
    k, zero = scalar_kernel(a.array), _zero_like(a.array[:1])
    quotients = a.array / np.arange(1, len(a.array) + 1)
    return TaylorPoly(k.drop(k.lift(zero) + k.lift(quotients)))


def poly_eval(a: TaylorPoly, t):
    return horner(a.coeffs, t)


def poly_reciprocal(a: TaylorPoly) -> TaylorPoly:
    """Series inverse 1/a. Requires a(0) != 0."""
    k = scalar_kernel(a.array)
    (x0, *xs), (zero, one) = k.lift(a.array), k.lift((0, 1))
    if x0 == k.zero:
        raise SingularDivisionError("poly_reciprocal: constant term is zero")
    out = [k.div(one, x0)]
    minus_inv0, zero = k.neg(out[0]), k.mul(x0, zero)
    dot, mul = k.dot, k.mul
    for _ in xs:  # out_d = -out_0 (a_1 out_(d-1) + ... + a_d out_0)
        out.append(mul(minus_inv0, dot(zero, xs, reversed(out))))
    return TaylorPoly(k.drop(out))


def poly_compose_inverse(outer: TaylorPoly, inner: TaylorPoly) -> TaylorPoly:
    """outer(q(h)) for the compositional inverse q of inner, at the common cap.

    Requires inner(0) = 0 and inner'(0) != 0. Lagrange-Buermann inversion
    (Knuth, TAOCP Vol. 2, 4.7): with phi(s) = s / inner(s),
    [h^m] outer(q(h)) = [s^(m-1)] outer'(s) phi(s)^m / m for m >= 1, so one
    reciprocal and one running power of phi give every coefficient; with
    outer(s) = s the result is q itself.
    """
    _check_same_cap(outer, inner, "poly_compose_inverse")
    k = scalar_kernel(inner.array)
    head = k.lift(inner.array)
    if head[0] != k.zero:
        raise CompositionDomainError(
            "poly_compose_inverse: inner series has nonzero constant term"
        )
    if inner.cap == 0 or head[1] == k.zero:
        raise SingularDivisionError(
            "poly_compose_inverse: inner series has a vanishing linear term"
        )
    cap = inner.cap
    phi = poly_reciprocal(TaylorPoly(inner.array[1:]))
    d0, *dout = k.lift(poly_derivative(outer).array)
    out, ms = k.lift(outer.array)[:1], k.lift(range(cap + 1))
    power = phi
    for m in range(1, cap + 1):
        pw = k.lift(power.array)[m - 1::-1]  # [s^(m-1-j)] phi^m, j = 0, 1, ..
        out.append(k.div(k.dot(k.mul(d0, pw[0]), dout, pw[1:]), ms[m]))
        if m < cap:
            power = poly_mul(power, phi)
    return TaylorPoly(k.drop(out))


def poly_shift(a: TaylorPoly, h) -> TaylorPoly:
    """Coefficients of a(h + t) at the same cap (exact Taylor shift)."""
    k = scalar_kernel(a.array)
    rev, (h,) = k.lift(a.array)[::-1], k.lift((h,))  # rev[i] = a_(n-1-i)
    # repeated synthetic division by (t - h) accumulates the shifted
    # coefficients without forming binomials: a_i += a_(i+1) h, i = n-2..j
    for i in range(len(rev) - 1, 0, -1):
        k.run(rev, i, h)
    return TaylorPoly(k.drop(rev[::-1]))


def analytic_compose(name: str, inner: TaylorPoly) -> TaylorPoly:
    """Compose a fixed analytic function with a series, inner(0) = 0.

    Supported: ``arctan`` and ``tan``. Coefficients are propagated through
    the defining ODE, so no transcendental evaluations are involved and the
    result is exact over the coefficient field.
    """
    k = scalar_kernel(inner.array)
    if k.lift(inner.array)[0] != k.zero:
        raise CompositionDomainError(
            f"analytic_compose({name!r}): inner series has nonzero constant term"
        )
    if name == "arctan":
        return _arctan_series(inner)
    if name == "tan":
        return _tan_series(inner)
    raise ValueError(f"analytic_compose: unknown function {name!r}")


def _arctan_series(a: TaylorPoly) -> TaylorPoly:
    # y = arctan(a):  y' = a' / (1 + a^2), y(0) = 0
    cap = a.cap
    if cap == 0:
        return poly_zero(0, like=a.coeffs[0])
    da = poly_derivative(a)
    one = poly_one(cap, like=_one_like(a.coeffs[0]))
    denom = poly_add(one, poly_mul(a, a))
    integrand = poly_mul(da, poly_truncate(poly_reciprocal(denom), cap - 1))
    return poly_antiderivative(integrand)


def _tan_series(a: TaylorPoly) -> TaylorPoly:
    # y = tan(a):  y' = a' (1 + y^2), y(0) = 0; filled order by order
    cap = a.cap
    k = scalar_kernel(a.array)
    da, ns = k.lift(a.array), k.lift(range(cap + 1))
    z = k.mul(da[0], ns[0])  # a_0 * 0, the whole series at cap 0
    ap = list(map(k.mul, ns[1:], da[1:]))  # a'_m = (m+1) a_(m+1)
    # a'_m = 0 exactly when a_(m+1) = 0; compress skips those terms
    live = [x != k.zero for x in da[1:]]
    live_ap = list(compress(ap, live))
    y = [z] * (cap + 1)
    rys = []  # [y^2]_(d-1), ..., [y^2]_1, each once y_0..y_(d-1) are known
    for d in range(1, cap + 1):
        # [a'(1 + y^2)]_{d-1} depends on y_0..y_{d-1} only
        if d > 1:
            rys.insert(0, k.dot(z, y, y[d - 1::-1]))
        y[d] = k.div(k.dot(ap[d - 1], live_ap, compress(rys, live)), ns[d])
    return TaylorPoly(k.drop(y))


def _one_like(x):
    return x * 0 + 1


# ---------------------------------------------------------------------------
# complex series


@dataclass(frozen=True)
class ComplexSeries:
    """Equal-cap (re, im) pair representing a complex-valued series."""

    re: TaylorPoly
    im: TaylorPoly

    def __post_init__(self):
        _check_same_cap(self.re, self.im, "ComplexSeries")

    @property
    def cap(self) -> int:
        return self.re.cap


def cs_from_real(re: TaylorPoly) -> ComplexSeries:
    return ComplexSeries(re, poly_zero(re.cap, like=re.coeffs[0]))


def cs_add(a: ComplexSeries, b: ComplexSeries) -> ComplexSeries:
    return ComplexSeries(poly_add(a.re, b.re), poly_add(a.im, b.im))


def cs_mul(a: ComplexSeries, b: ComplexSeries) -> ComplexSeries:
    re = poly_add(poly_mul(a.re, b.re), poly_neg(poly_mul(a.im, b.im)))
    im = poly_add(poly_mul(a.re, b.im), poly_mul(a.im, b.re))
    return ComplexSeries(re, im)


def complex_int_pow(base: ComplexSeries, k: int) -> ComplexSeries:
    """base**k by repeated squaring, truncated at the base cap. k >= 0."""
    if k < 0:
        raise ValueError("complex_int_pow: negative exponent")
    one = _one_like(base.re.coeffs[0])
    acc = cs_from_real(poly_one(base.cap, like=one))
    sq = base
    while k:
        if k & 1:
            acc = cs_mul(acc, sq)
        k >>= 1
        if k:
            sq = cs_mul(sq, sq)
    return acc


# ---------------------------------------------------------------------------
# even sigma-power series with ComplexSeries coefficients


@dataclass(frozen=True)
class EvenSeries:
    """sum_j slots[j] * sigma^(2j), each slot a ComplexSeries in t."""

    slots: tuple

    def __post_init__(self):
        if len(self.slots) == 0:
            raise SeriesShapeError("EvenSeries needs at least one slot")
        cap = self.slots[0].cap
        for s in self.slots:
            if s.cap != cap:
                raise SeriesShapeError("EvenSeries: slot caps differ")
        object.__setattr__(self, "slots", tuple(self.slots))

    @property
    def nslots(self) -> int:
        return len(self.slots)

    @property
    def cap(self) -> int:
        return self.slots[0].cap


def even_mul(a: EvenSeries, b: EvenSeries) -> EvenSeries:
    """Convolution in sigma^2, truncated at min(slot counts)."""
    n = min(a.nslots, b.nslots)
    cap = a.cap
    if cap != b.cap:
        raise SeriesShapeError("even_mul: slot caps differ")
    zero = cs_from_real(poly_zero(cap, like=a.slots[0].re.coeffs[0]))
    out = []
    for d in range(n):
        acc = zero
        for j in range(d + 1):
            acc = cs_add(acc, cs_mul(a.slots[j], b.slots[d - j]))
        out.append(acc)
    return EvenSeries(tuple(out))


def even_int_pow(a: EvenSeries, k: int) -> EvenSeries:
    if k < 0:
        raise ValueError("even_int_pow: negative exponent")
    one = _one_like(a.slots[0].re.coeffs[0])
    unit = cs_from_real(poly_one(a.cap, like=one))
    zero = cs_from_real(poly_zero(a.cap, like=a.slots[0].re.coeffs[0]))
    acc = EvenSeries(tuple([unit] + [zero] * (a.nslots - 1)))
    sq = a
    while k:
        if k & 1:
            acc = even_mul(acc, sq)
        k >>= 1
        if k:
            sq = even_mul(sq, sq)
    return acc


# ---------------------------------------------------------------------------
# sigma expansions and jet evaluation


@dataclass(frozen=True)
class SigmaExpansion:
    """phi(t, sigma) = sum_{k=0}^{K} f_k(t) sigma^(2k) / (2k)!.

    terms[k] stores the bare f_k, all at one common degree cap. The
    base-point conditions f0(0) = f0'(0) = f0''(0) = 0 and f1(0) = 0 are the
    normalized-arc convention and are enforced exactly.
    """

    n: int
    terms: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("SigmaExpansion: n must be >= 2")
        if len(self.terms) == 0:
            raise SeriesShapeError("SigmaExpansion: needs at least f0")
        f0, cap = self.terms[0], self.terms[0].cap
        for f in self.terms:
            _check_same_cap(f0, f, "SigmaExpansion")
        bad = [c for c in f0.coeffs[: min(3, cap + 1)] if c != 0]
        if bad:
            raise ValueError(
                "SigmaExpansion: f0 must vanish to second order at t=0"
            )
        if len(self.terms) > 1 and self.terms[1].coeffs[0] != 0:
            raise ValueError("SigmaExpansion: f1(0) must vanish")
        object.__setattr__(self, "terms", tuple(self.terms))

    @property
    def K(self) -> int:
        return len(self.terms) - 1

    @property
    def cap(self) -> int:
        return self.terms[0].cap

    @cached_property
    def jet_evaluator(self) -> "SigmaJetEvaluator":
        """The expansion's one ``SigmaJetEvaluator``, built on first use."""
        return SigmaJetEvaluator(self)

    @cached_property
    def decimal_rows(self) -> tuple:
        """Each f_k's coefficients as decimal strings
        (``precision.decimal_strings``), made on first use."""
        return tuple(tuple(decimal_strings(f.array)) for f in self.terms)


@dataclass(frozen=True)
class PhiJet:
    """Value and the second-order partials of phi at one (t, sigma), or
    arrays of them over a grid of points."""

    phi: object
    phi_t: object
    phi_sigma: object
    phi_tt: object
    phi_sigmat: object
    phi_sigmasigma: object
    phi_sigma_over_sigma: object


class SigmaJetEvaluator:
    """Precomputed derivative coefficients for repeated jet evaluation."""

    def __init__(self, exp: SigmaExpansion):
        # no reference to exp is kept: the expansion caches its evaluator
        f = [p.array for p in exp.terms]
        k = self.kernel = scalar_kernel(f[0])
        if k is PythonScalars:
            # the f_k as the rows of one (K+1, cap+1) block, and f_k' and
            # f_k'' as two more, each one array multiply, as
            # poly_derivative takes a row: a constant's derivative is c*0
            polys = [np.stack(f)]
            for _ in range(2):
                d = polys[-1]
                with np.errstate(invalid="ignore"):  # inf*0, as on floats
                    polys.append(d[:, 1:] * np.arange(1, d.shape[1])
                                 if d.shape[1] > 1 else d * 0)
        else:  # slots: their raw kernels, row by row
            fp = [poly_derivative(p) for p in exp.terms]
            polys = f + [p.array for p in fp] + [
                poly_derivative(p).array for p in fp]
        # f_k, f_k' and f_k'' evaluated by the kernel of their arrays' form
        self._values = polynomial_values(polys)
        # per k, the rows of f_k, f_k' and f_k'' that feed (phi, phi_t,
        # phi_tt) and (q, phi_ss, phi_st), and their divisors; the second
        # triple is unused at k = 0
        m = len(f)
        fact = [math.factorial(j) for j in range(2 * m)]
        self._rows = np.array([[k, m + k, 2 * m + k, k, k, m + k]
                               for k in range(m)])
        divisors = [[fact[2 * k]] * 3 + ([fact[2 * k - 1], fact[2 * k - 2],
                                          fact[2 * k - 1]] if k else [1] * 3)
                    for k in range(m)]
        # in the form's dtype: Python ints, which object arrays (of Fraction)
        # divide exactly, or floats, as a Python float divided by an int rounds
        self._divisors = np.array(divisors, dtype=polys[0].dtype)
        # raw mpf: per accumulator, (row, divisor) from k = K to 1 or 0
        self._chains = k is not PythonScalars and [
            [(self._rows[j, i], k.lift([divisors[j][i]])[0])
             for j in range(m - 1, i // 3 - 1, -1)] for i in range(6)]
        # how a number enters the jets' context (float64's: rounded)
        self.enter = FLOAT64.enter if polys[0].dtype == float else k.enter
        self._t_stage = None, None  # (raw t and prec, terms) of _raw_jet

    def jet(self, t, sigma, _lhs: bool = False) -> PhiJet:
        """phi and its partials at (t, sigma); exact at sigma = 0.

        t and sigma are scalars or numpy arrays that broadcast against each
        other. Each f_k, f_k' and f_k'' is evaluated once per element of t,
        then Horner in sigma^2 runs over the broadcast shape: a t column
        against a sigma row evaluates a tensor grid with the f_k once per
        t, and arrays of one shape evaluate element by element. The six
        accumulators (phi, phi_t, phi_tt, q = phi_sigma/sigma, phi_ss,
        phi_st) are the rows of one array, so each Horner step is one
        multiply and one add, which numpy applies to float64 elements or to
        the Python scalars of an object array; mpf of one context take the
        same steps on raw tuples (``_raw_jet``), bit for bit, on t and sigma
        entered into their context. Scalar t and sigma take the same path,
        and give Python scalars back. t and sigma enter the jets' context
        first (``enter``); ``_lhs``, internal, is ``_raw_jet``'s ``lhs``.

        The odd-looking (2k-1)! bookkeeping: d/dsigma sigma^(2k)/(2k)! =
        sigma^(2k-1)/(2k-1)!, so phi_sigma/sigma and phi_sigmat pick up the
        odd factorials while phi_sigmasigma uses (2k-2)!.
        """
        if not isinstance(t, np.ndarray) and not isinstance(sigma, np.ndarray):
            # t as a 0-d array, with IEEE results and no numpy warning, as
            # on Python scalars, whose types the fields take back
            with np.errstate(over="ignore", invalid="ignore"):
                jet = self.jet(np.asarray(t), sigma)
            return PhiJet(*(np.asarray(v).item() for v in vars(jet).values()))
        t, sigma = np.asarray(self.enter(t)), self.enter(sigma)
        if self._chains:
            return (self._raw_jet(t, sigma, True) if _lhs
                    else PhiJet(*self._raw_jet(t, sigma)))
        vals = self._values(t)
        divisors = self._divisors
        # t's axes, behind the leading ones that sigma may add
        shape = (1,) * max(0, np.ndim(sigma) - t.ndim) + t.shape
        terms = (vals.reshape(vals.shape[:1] + shape)[self._rows]
                 / divisors.reshape(divisors.shape + (1,) * len(shape)))
        s2 = sigma * sigma
        # the grid's shape, also at K = 0; the first step makes the
        # accumulator, and the others run in place on it
        acc = np.broadcast_to(t * 0, (6,) + np.broadcast(t, sigma).shape)
        if len(terms) > 1:
            acc = acc * s2 + terms[-1]
        for k in range(len(terms) - 2, 0, -1):
            np.multiply(acc, s2, acc)
            np.add(acc, terms[k], acc)
        # k = 0 has no odd terms
        phi, phi_t, phi_tt = acc[:3] * s2 + terms[0, :3]
        q, phi_ss, phi_st = acc[3:]
        return PhiJet(phi=phi, phi_t=phi_t, phi_sigma=q * sigma,
                      phi_tt=phi_tt, phi_sigmat=phi_st * sigma,
                      phi_sigmasigma=phi_ss, phi_sigma_over_sigma=q)

    def _raw_jet(self, t: np.ndarray, sigma, lhs: bool = False) -> list:
        """``jet``'s fields on the raw kernel, each of the broadcast grid's
        shape (scalars on a 0-d grid); a float or an int sigma squares in
        its type. With ``lhs``, only the chains of phi_tt, q, phi_ss and
        phi_st run, and it gives the grid's shape and, per point, the raw
        (sigma, phi_sigma, phi_tt, phi_ss, phi_st) of the PDE's left side."""
        k = self.kernel
        ts, sig, sq, zero = (k.lift(np.ravel(x).tolist())
                             for x in (t, sigma, sigma * sigma, 0))
        zeros = [k.mul(x, zero[0]) for x in ts]  # t*0: NaN at NaN or inf
        # the last t-stage, kept per points and the prec the kernel reads
        key, stage = (ts, k.mp.prec), self._t_stage
        if stage[0] != key:
            vals = self._values(ts)
            stage = self._t_stage = key, [
                [[k.div(vals[row][p], d) for row, d in chain]
                 for chain in self._chains] for p in range(t.size)]
        terms = stage[1]
        grid = np.broadcast(np.arange(t.size).reshape(t.shape),
                            np.arange(len(sig)).reshape(np.shape(sigma)))
        fields = []
        for p, s in grid:
            *phi, phi_tt, q, phi_ss, phi_st = (
                k.run([zeros[p], *cs], len(cs), sq[s])
                for cs in terms[p][2 if lhs else 0:])
            phi_s, phi_st = k.mul(q, sig[s]), k.mul(phi_st, sig[s])
            fields.append((sig[s], phi_s, phi_tt, phi_ss, phi_st) if lhs
                          else (*phi, phi_s, phi_tt, phi_st, phi_ss, q))
        if lhs:
            return grid.shape, fields
        return [np.fromiter(map(k.mp.make_mpf, x), dtype=object,
                            count=grid.size).reshape(grid.shape)[()]
                for x in list(zip(*fields)) or [()] * 7]
