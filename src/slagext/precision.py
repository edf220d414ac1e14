"""Scalar precision contexts.

Series and chart evaluation are written generically over a small scalar
interface so the same code runs in float64 or in mpmath arbitrary precision.
Double precision is the default; the high-order residual-decay and overlap
comparisons need signals far below 1e-16 and use an mpmath context.

A context converts external representations (ints, floats, decimal strings)
into its scalar type and supplies the few transcendental functions the
geometry needs. Complex scalars are built with ``make_complex`` and follow
the native ``.real`` / ``.imag`` / ``.conjugate()`` protocol, which float,
complex, mpf and mpc all share. On float64 arrays, ``complex_array`` and
``complex_product`` give each element bit for bit what ``complex(re, im)``
and ``a * b`` give on Python scalars.

The CLI picks its context from the SLAG_PRECISION environment variable:
``float64`` (default) or ``mp<digits>``, e.g. ``mp50``. A number enters an
mp computation once, where it starts (``_MpfScalars.enter``): floats, ints
and mpf of its context as they are, exactly, and any other number rounded
once to the nearest mpf of its context.

Polynomial coefficients live in one array, whose form is decided once, here
(``coefficient_array``, the only code that looks at their types): float64
when all are Python floats, a ``RawSlot`` of raw libmpf tuples when all are
mpf of one context, object otherwise. The form picks every kernel.
``truncated_product`` multiplies behind ``series.poly_mul``: numpy's
correlate straight on float64, for slots one exact big-integer (Kronecker)
product of operands balanced by t -> 2**s t, which moves only exponents, so
each coefficient is the same exact number for every s, rounded once; and the
generic loop otherwise. ``polynomial_values`` evaluates behind
``series.SigmaJetEvaluator``: at an array of points, one exact integer dot
product per slot, else one Horner loop over all the polynomials stacked, on
float64 for float64 arrays at float64 points and on the Python scalars
otherwise. ``scalar_kernel`` is the series loops' and mpf jets' arithmetic:
the Python operators, or on a slot's raw tuples the mpf operators' libmpf
calls and ``fused_muladd``; each rounds its exact result once, so the bits
are mpf's. Products, loops and jets keep mpf of a slot as raw tuples.
"""
from __future__ import annotations

import math
import os
from functools import partial
from itertools import count, repeat
from operator import add, attrgetter, itemgetter, mul, neg, truediv
from typing import Any, Callable, Sequence, Union

import mpmath
import numpy as np
from mpmath.libmp import (from_float, from_int, fone, fzero, mpc_add_mpf,
                          mpc_mul, mpc_mul_mpf, mpc_pow_int, mpf_abs, mpf_add,
                          mpf_div, mpf_mul, mpf_neg, mpf_pos, normalize,
                          round_nearest, to_float)

try:
    from numpy._core.multiarray import correlate
except ImportError:  # numpy < 2
    from numpy.core.multiarray import correlate

Scalar = Any
CScalar = Any


class FloatContext:
    """IEEE double scalars backed by the math module."""

    name = "float64"
    eps = 2.220446049250313e-16

    def real(self, x: Union[int, float, str]) -> float:
        return float(x)

    def enter(self, x):  # a number enters float64 rounded, arrays too
        return np.asarray(x, float) if isinstance(x, np.ndarray) else float(x)

    def make_complex(self, re, im) -> complex:
        """``complex(re, im)``; elementwise over numpy float64 arrays."""
        if isinstance(re, np.ndarray):
            return complex_array(re, im)
        return complex(re, im)

    def pi(self) -> float:
        return math.pi

    def sqrt(self, x):
        """``math.sqrt``; elementwise over numpy float64 arrays."""
        if isinstance(x, np.ndarray):
            return np.sqrt(x)
        return math.sqrt(x)

    def sin(self, x):
        return math.sin(x)

    def cos(self, x):
        return math.cos(x)

    def atan2(self, y, x):
        return math.atan2(y, x)

    def exp_i(self, theta) -> complex:
        return complex(math.cos(theta), math.sin(theta))


class MPContext:
    """mpmath scalars at a fixed working precision.

    Each context computes in its own ``mpmath.MPContext``, and every scalar
    it makes belongs to that mpmath context, whose precision its arithmetic
    keeps. So contexts of different precision can live in one process, and
    none of them reads or writes mpmath's process-wide ``mpmath.mp``.
    """

    def __init__(self, dps: int):
        if dps < 16:
            raise ValueError("mp context needs at least 16 digits")
        self.dps = int(dps)
        self.name = f"mp{self.dps}"
        self._mp = mpmath.MPContext()
        self._mp.dps = self.dps
        self.eps = float(self._mp.mpf(10) ** (1 - self.dps))
        self.enter = _MpfScalars(self._mp).enter

    def real(self, x):
        return self._mp.mpf(x)

    def make_complex(self, re, im):
        """An mpc; elementwise over numpy object arrays of mpf."""
        if isinstance(re, np.ndarray) or isinstance(im, np.ndarray):
            return np.frompyfunc(self._mp.mpc, 2, 1)(re, im)
        return self._mp.mpc(re, im)

    def pi(self):
        return +self._mp.pi

    def sqrt(self, x):
        return self._mp.sqrt(x)

    def sin(self, x):
        return self._mp.sin(x)

    def cos(self, x):
        return self._mp.cos(x)

    def atan2(self, y, x):
        return self._mp.atan2(y, x)

    def exp_i(self, theta):
        return self._mp.mpc(self._mp.cos(theta), self._mp.sin(theta))


Context = Union[FloatContext, MPContext]


def complex_array(re, im) -> np.ndarray:
    """The complex128 array re + i im, with the sign of every zero part
    kept: ``re + 1j * im`` turns a -0.0 real part into +0.0."""
    out = np.empty(np.broadcast(re, im).shape, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def _numeric_array(x) -> bool:
    """Whether x is a numpy array of machine numbers, not of objects."""
    return isinstance(x, np.ndarray) and x.dtype != object


def complex_product(a, b):
    """``a * b``, and on float or complex numpy arrays the same product
    element by element, bit for bit.

    numpy's complex128 multiply may use fused multiply-adds, which round
    differently from Python's ``complex.__mul__``. So on such arrays the
    product is written out on the real and imaginary parts with CPython's
    formula, a real factor x counting as complex(x, 0.0) as CPython's does.
    Object arrays (of mpc) multiply element by element with ``*``, the
    array on the left: an mpc on the left first tries to convert the
    array, and mpmath formats the whole array for the error it raises. An
    mpc product rounds each part once from exact products, so the order
    of the factors changes no bit.
    """
    if not _numeric_array(a) and not _numeric_array(b):
        return b * a if isinstance(b, np.ndarray) else a * b
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    return complex_array(ar * br - ai * bi, ar * bi + ai * br)


def complex_power(a, k: int):
    """``a ** k`` for an integer k >= 1, and on Python complex scalars and
    numpy arrays the same power, element by element and bit for bit:
    CPython's binary powering, starting from 1 + 0j, with each product by
    ``complex_product``. Unlike ``**`` on a Python complex, it returns an
    infinite or NaN power instead of raising ``OverflowError``, as numpy
    does. Everything else (mpc) takes ``**``."""
    if not isinstance(a, (complex, np.ndarray)):
        return a ** k
    out, bit = complex(1.0, 0.0), 1
    while bit <= k:
        if k & bit:
            out = complex_product(out, a)
        bit <<= 1
        if bit <= k:
            a = complex_product(a, a)
    return out


def abs_squared(z):
    """``abs(z) ** 2``, and on complex128 arrays the same element by
    element, bit for bit. numpy's complex ``abs`` differs from Python's in
    the last bit for about a third of all values and ``x ** 2`` is ``x * x``
    to numpy, so arrays take ``hypot``, as Python's complex ``abs`` does,
    and the C ``pow``, as Python's float ``**`` does."""
    if not isinstance(z, np.ndarray):
        return abs(z) ** 2
    return np.float_power(np.hypot(z.real, z.imag), 2)


FLOAT64 = FloatContext()


_MP_CONTEXTS: dict = {}  # digits -> MPContext, each built on first use


def mp_context(dps: int = 50) -> MPContext:
    """An ``MPContext``, with ``mpmath.mp`` set to the same precision for
    callers that compute with mpmath directly. Nothing in the package
    reads ``mpmath.mp``, and this is the only place that writes it."""
    ctx = context_named(f"mp{int(dps)}")
    mpmath.mp.dps = ctx.dps
    return ctx


def context_named(spec: str) -> Context:
    """Context for a precision name: ``float64`` or ``mp<digits>``, one
    ``MPContext`` per digit count."""
    spec = spec.strip().lower()
    if spec == "float64":
        return FLOAT64
    if spec.startswith("mp"):
        try:
            digits = int(spec[2:])
        except ValueError:
            raise ValueError(f"bad precision name: {spec!r}") from None
        if digits not in _MP_CONTEXTS:
            _MP_CONTEXTS[digits] = MPContext(digits)
        return _MP_CONTEXTS[digits]
    raise ValueError(f"bad precision name: {spec!r}")


def from_env() -> Context:
    """Context selected by SLAG_PRECISION (``float64`` or ``mp<digits>``);
    float64 when it is unset or blank."""
    spec = os.environ.get("SLAG_PRECISION", "").strip()
    if not spec:
        return FLOAT64
    return context_named(spec)


_FLOAT64, _OBJECT = np.dtype(np.float64), np.dtype(object)


def coefficient_array(cs):
    """The coefficients ``cs`` as one 1-D array: float64 when every one is
    a Python float, a ``RawSlot`` when every one is an mpf of one mpmath
    context, else object dtype holding the scalars unchanged. A float64
    array or a slot is taken as it is."""
    if type(cs) is RawSlot or isinstance(cs, np.ndarray) and (
            cs.dtype == _FLOAT64 or cs.ndim != 1):
        return cs
    if isinstance(cs, np.ndarray):
        cs = cs.tolist()
    kinds = {type(x) for x in cs}
    kind = kinds.pop() if len(kinds) == 1 else None
    mp = getattr(kind, "context", None)  # the mpmath context of its mpf
    if mp is not None and kind is mp.mpf:
        return RawSlot([x._mpf_ for x in cs], mp)
    # not np.array, which probes every scalar for a sequence interface
    return np.fromiter(cs, dtype=_FLOAT64 if kind is float else _OBJECT,
                       count=len(cs))


def finite_coefficients(cs) -> bool:
    """Whether no coefficient of the array is NaN or infinite: one numpy
    test on float64; mpf by the special values of their raw tuples, and
    Python floats by ``math.isfinite`` (Fraction and int are finite)."""
    if cs.dtype == _FLOAT64:
        return bool(np.isfinite(cs).all())
    if type(cs) is RawSlot:
        return not any(map(_mpf_special, cs.raw))
    return not any(_mpf_special(x._mpf_) if hasattr(x, "_mpf_")
                   else isinstance(x, float) and not math.isfinite(x)
                   for x in cs.tolist())


def log_weighted_norm(cs, r: float) -> float:
    """log sum_j |c_j| r**j of a slot's coefficients, the weights r**j
    taken as float products, summed in the slot's context and read from
    the sum's mantissa and exponent: finite where the float sum overflows.
    inf for a NaN or an infinite sum, and for any other array."""
    if type(cs) is not RawSlot:
        return math.inf
    acc, w, prec = fzero, 1.0, cs.mp.prec
    for x in cs.raw:
        acc = fused_muladd(acc, mpf_abs(x), from_float(w), prec)
        w *= r
    _, man, exp, _ = acc
    return math.log(man) + exp * math.log(2) if man else math.inf


def truncated_product(ca, cb):
    """Coefficients 0..len(ca)-1 of the product of two equal-length
    coefficient arrays, by the kernel of their scalar type.

    float64 arrays go through numpy's correlate, as in ``np.convolve`` but
    without its Python wrapper. Two ``RawSlot`` of one mpmath context go
    through one exact big-integer product, rounded once per coefficient.
    Everything else (Fraction, int, mixed scalars, mpf NaN or infinities)
    takes the generic loop, which is exact over an exact field.
    """
    if ca.dtype == _FLOAT64 and cb.dtype == _FLOAT64:
        return correlate(ca, cb[::-1], 2)[:len(ca)]  # mode 2 is "full"
    if type(ca) is RawSlot is type(cb) and ca.mp is cb.mp:
        out = _kronecker(ca, cb)
        if out is not None:  # else NaN or an infinity: the loop, on the mpf
            return RawSlot(out, ca.mp)
    return coefficient_array(_loop_product(ca.tolist(), cb.tolist()))


class RawSlot:
    """The coefficient array of mpf of one mpmath context ``mp``, as raw
    libmpf tuples: ``+`` a slot of ``mp``, unary ``-``, and ``*`` and
    ``/`` by a number or an array of them (``_MpfScalars.lift``) make,
    element by element, the mpf operator's libmpf call at the context's
    ``prec`` and ``round_nearest``, bit for bit; ``+`` any other array
    takes the mpf objects' arithmetic. Never modified, a slot keeps its
    ``slope`` and the exact mantissas of its last product, also in slices.
    """

    __slots__ = ("raw", "mp", "exact", "slope")
    dtype, ndim = _OBJECT, 1  # those of the object arrays it replaces
    __array_ufunc__ = None  # an array plus a slot calls __radd__

    def __init__(self, raw: list, mp, exact=None, slope=None):
        self.raw, self.mp, self.exact, self.slope = raw, mp, exact, slope

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, cut: slice) -> "RawSlot":
        start, _, step = cut.indices(len(self.raw))
        ints, e, s = self.exact if step == 1 and self.exact else (None, 0, 0)
        # a NaN or an infinity may lie outside the cut; c_(start+j) 2**(j s)
        # is m_(start+j) 2**(e - start s)
        return RawSlot(self.raw[cut], self.mp, None if ints is None else
                       (ints[cut], e - start * s, s), self.slope)

    def tolist(self) -> list:
        return list(map(self.mp.make_mpf, self.raw))

    def __add__(self, other):
        if type(other) is not RawSlot or other.mp is not self.mp:
            return np.array(self.tolist(), dtype=_OBJECT) + other
        prec = self.mp.prec
        return RawSlot([mpf_add(x, y, prec, round_nearest)
                        for x, y in zip(self.raw, other.raw)], self.mp)

    def __radd__(self, other: np.ndarray) -> np.ndarray:
        return other + np.array(self.tolist(), dtype=_OBJECT)

    def __neg__(self) -> "RawSlot":
        return RawSlot(list(map(_MpfScalars(self.mp).neg, self.raw)), self.mp)

    def __mul__(self, k) -> "RawSlot":
        kernel = _MpfScalars(self.mp)
        return kernel.drop(list(map(kernel.mul, self.raw, kernel.each(k))))

    def __truediv__(self, k) -> "RawSlot":
        kernel = _MpfScalars(self.mp)
        return kernel.drop(list(map(kernel.div, self.raw, kernel.each(k))))


def polynomial_values(polys: Sequence) -> Callable:
    """The function giving the values of the polynomials whose coefficient
    arrays (c_0, c_1, ...) are ``polys`` (other sequences go through
    ``coefficient_array``), by the kernel of their form, chosen once here.

    Slots of one context give, for a list of points as raw tuples of it,
    per polynomial the list of its values there as raw tuples. Each
    polynomial's exact mantissas are taken once, here, and those of each
    point's powers (each rounded at the context's precision) once; a value
    is one exact integer dot product, rounded once. ``fdot`` rounds once
    from ``mpf_sum``, so the two are bit-equal wherever that sum is exact:
    it drops a term only across a gap of more than 2 prec bits to the
    running sum. A row or a point holding NaN or an infinity takes
    ``fdot``, on mpf made for it. Every other form gives, for a numpy array
    t, one array of shape (len(polys),) + t.shape: Horner's rule on all the
    polynomials at once (``_StackedHorner``), on float64 for float64 arrays
    at a float64 t and on objects otherwise, so that each element is what
    ``horner`` gives on the Python scalars, bit for bit.
    """
    polys = list(map(coefficient_array, polys))
    mp = scalar_kernel(*polys).mp
    if mp is None:
        return _StackedHorner(polys)
    rows = [_exact_mantissas(cs.raw) for cs in polys]
    size, make = max(map(len, polys)), mp.make_mpf

    def raw(xs: list) -> list:
        out, prec = [[] for _ in polys], mp.prec
        for x in xs:
            powers = [mp.one._mpf_]
            for _ in range(size - 1):
                powers.append(mpf_mul(powers[-1], x, prec, round_nearest))
            ps, ex = _exact_mantissas(powers)
            for values, cs, (ms, ec) in zip(out, polys, rows):
                values.append(
                    mp.fdot(cs.tolist(), map(make, powers))._mpf_
                    if ms is None or ps is None
                    else _rounded(sum(map(mul, ms, ps)), ec + ex, prec))
        return out  # per polynomial, its values at the points in turn
    return raw


class _StackedHorner:
    """Horner's rule for polynomials of any lengths at an array t, one loop
    for all of them.

    The coefficients sit in one matrix, rows sorted longest first and
    ragged ends unused, so the polynomials still running at each degree
    are a leading block of rows. A polynomial joins the loop at its top
    coefficient, so every row takes exactly the operations of the scalar
    Horner's rule, whatever t holds: no padding zero is multiplied by t.
    A float64 matrix meets any t other than a float64 one as objects,
    whose arithmetic numpy leaves to the Python scalars.
    """

    def __init__(self, polys):
        self.order = sorted(range(len(polys)), key=lambda i: -len(polys[i]))
        self.size = len(polys[self.order[0]])
        # degree-major, so that each degree's column is contiguous
        dtype = float if all(p.dtype == _FLOAT64 for p in polys) else object
        self.coeffs = np.zeros((self.size, len(polys), 1), dtype=dtype)
        for row, i in enumerate(self.order):
            self.coeffs[:len(polys[i]), row, 0] = polys[i].tolist()
        # rows running at degree j: those of length > j
        self.running = [sum(len(cs) > j for cs in polys)
                        for j in range(self.size)]
        self.unsort = np.argsort(self.order)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        coeffs = self.coeffs
        if coeffs.dtype != t.dtype:
            coeffs = coeffs.astype(object, copy=False)
        rows = len(self.order)
        # t once per row, so that each step runs over contiguous memory
        x = np.broadcast_to(t.reshape(-1), (rows, t.size)).copy()
        acc = np.empty(x.shape, dtype=coeffs.dtype)
        top = self.size - 1
        live = self.running[top]
        acc[:live] = coeffs[top, :live]
        for j in range(top - 1, -1, -1):
            acc[:live] *= x[:live]
            acc[:live] += coeffs[j, :live]
            if self.running[j] > live:
                joining = self.running[j]
                acc[live:joining] = coeffs[j, live:joining]
                live = joining
        return acc[self.unsort].reshape((rows,) + t.shape)


def horner(cs: Sequence, t):
    """sum_j cs[j] t^j by Horner's rule, elementwise over numpy arrays."""
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = acc * t + c
    return acc


class PythonScalars:
    """The loops' kernel (the class itself) for all but slots: ``lift``
    gives Python scalars, which ``enter`` keeps; ``dot`` is acc + x0 y0 +
    x1 y1 + ..., left to right; ``run`` sets cs[j] = cs[j] + cs[j - 1] x
    for j = 1..stop in turn, in place, and returns the last; the complex
    operations are ``+`` and, also on float64 arrays, ``complex_product``
    and ``complex_power``. It has no context ``mp``."""

    drop, mul, div, neg, zero, mp = tuple, mul, truediv, neg, 0, None
    add_re, mul_re, cmul, cpow, imag, i, one = (
        add, complex_product, complex_product, complex_power,
        attrgetter("imag"), 1j, 1)

    def lift(xs) -> list:
        return xs.tolist() if hasattr(xs, "tolist") else list(xs)

    def enter(x):
        return x

    def dot(acc, xs, ys):
        for x, y in zip(xs, ys):
            acc = acc + x * y
        return acc

    def run(cs: list, stop: int, x):
        acc = cs[0]
        for j in range(1, stop + 1):
            acc = cs[j] = cs[j] + acc * x
        return acc


class _MpfScalars:
    """Raw tuples of ``mp``: mpf's libmpf calls at its prec when called,
    ``fused_muladd``, and on pairs of them the mpc operators' libmpc calls.
    ``lift`` gives None past its slots, and numbers as mpf arithmetic takes
    them (floats, ints and mpf of any context exactly); ``enter`` gives
    numbers as they enter a computation in ``mp``."""

    imag, i, one = itemgetter(1), (fzero, fone), fone
    to_float = partial(to_float, rnd=round_nearest)  # as float() of an mpf
    # z + x and z * x for a real x, z * w and z ** k, at the prec
    add_re, mul_re, cmul, cpow = (
        lambda self, z, w, f=f: f(z, w, self.mp.prec, round_nearest)
        for f in (mpc_add_mpf, mpc_mul_mpf, mpc_mul, mpc_pow_int))

    def __init__(self, mp):
        self.mp, self.zero, self.raw = mp, fzero, {
            mp.mpf: attrgetter("_mpf_"), float: from_float, int: from_int}

    def lift(self, xs) -> list | None:
        if hasattr(xs, "dtype"):  # a slot of mp only; copied, as run writes
            return xs.raw[:] if getattr(xs, "mp", None) is self.mp else None
        raw, converted = self.raw.get, self.converted
        return [raw(type(x), converted)(x) for x in xs]

    def each(self, k):
        """k, a number or a numpy array of them, as raw operands in turn."""
        return (self.lift(k.tolist()) if isinstance(k, np.ndarray)
                else repeat(*self.lift((k,))))

    def converted(self, x) -> tuple:
        return self.mp.convert(x)._mpf_

    def enter(self, x):
        """x, a number or a numpy array, as it enters ``mp``: machine
        numbers and mpf of ``mp`` as they are, any other number rounded
        once to the nearest mpf of ``mp``."""
        if isinstance(x, np.ndarray) and x.dtype == _OBJECT:
            return np.frompyfunc(self.enter, 1, 1)(x)
        return x if hasattr(x, "dtype") or type(x) in self.raw else (
            self.mp.make_mpf(mpf_pos(self.converted(x), self.mp.prec,
                                     round_nearest)))

    def drop(self, raws: list) -> RawSlot:
        return RawSlot(raws, self.mp)

    def mul(self, a, b):
        return mpf_mul(a, b, self.mp.prec, round_nearest)

    def div(self, a, b):
        return mpf_div(a, b, self.mp.prec, round_nearest)

    def neg(self, a):
        return mpf_neg(a, self.mp.prec, round_nearest)

    def dot(self, acc, xs, ys):
        prec = self.mp.prec
        for x, y in zip(xs, ys):
            acc = fused_muladd(acc, x, y, prec)
        return acc

    def run(self, cs: list, stop: int, x):
        acc, prec = cs[0], self.mp.prec
        for j in range(1, stop + 1):
            acc = cs[j] = fused_muladd(cs[j], acc, x, prec)
        return acc


def scalar_kernel(*arrays):
    """The loops' kernel by form: raw on slots of one context."""
    if type(arrays[0]) is not RawSlot:
        return PythonScalars
    k = _MpfScalars(arrays[0].mp)
    return PythonScalars if any(k.lift(a) is None for a in arrays[1:]) else k


def fused_muladd(c, a, b, prec: int) -> tuple:
    """``mpf_add(c, mpf_mul(a, b, prec), prec)`` at round_nearest, bit for
    bit: a*b rounded half to even at prec, the exact aligned sum and one
    ``normalize`` round each exact result once. Zeros, NaN, infinities and
    top exponents over prec + 4 bits apart (sticky bits) take libmpf's."""
    csign, cman, cexp, cbc = c
    man = a[1] * b[1]
    if not (cman or cexp):
        return mpf_mul(a, b, prec, round_nearest)
    if man and cman:
        exp, n = a[2] + b[2], man.bit_length() - prec
        if n > 0:
            half = man >> (n - 1)
            man = (half + 1 >> 1 if half & 1 and (
                half & 2 or man & ((1 << (n - 1)) - 1)) else half >> 1)
            exp += n
        if abs(cexp + cbc - exp - man.bit_length()) <= prec + 4:
            man, cman = -man if a[0] ^ b[0] else man, -cman if csign else cman
            e = min(exp, cexp)  # the exact sum, aligned at the lower one
            return _rounded((man << (exp - e)) + (cman << (cexp - e)), e, prec)
    return mpf_add(c, mpf_mul(a, b, prec, round_nearest), prec,
                   round_nearest)


def _loop_product(ca, cb) -> list:
    dot = PythonScalars.dot
    return [dot(ca[0] * cb[d], ca[1:d + 1], reversed(cb[:d]))
            for d in range(len(ca))]


def _kronecker(a: "RawSlot", b: "RawSlot") -> list | None:
    """The truncated product of two slots as raw tuples, by Kronecker
    substitution (Brent & Zimmermann, Modern Computer Arithmetic, 2010) on
    operands balanced by t -> 2**s t (van der Hoeven, Making fast
    multiplication of polynomials numerically stable, 2008), s minus the
    slots' mean ``_slope``: each operand's ``_exact_mantissas`` of
    c_j 2**(j s) fill the fixed-width slots of one Python int, so one
    multiplication gives in slot d the exact integer C_d with
    sum_(i+j=d) a_i b_j == C_d 2**(e - d s), rounded once by ``_rounded``.
    A power of two moves only exponents, so every s gives the same C_d
    2**(e - d s) and the same bits; s sets the slot width. None for a NaN
    or an infinity."""
    s = -round((_slope(a) + _slope(b)) / 2)
    (ia, ea), (ib, eb) = _tilted(a, s), _tilted(b, s)
    if ia is None or ib is None:
        return None
    n, e, prec = len(ia), ea + eb, a.mp.prec
    for ints, c, other in ((ia, a.raw[0], b), (ib, b.raw[0], a)):
        if not any(ints[1:]):  # a constant factor: one rounded product each
            return [mpf_mul(c, y, prec, round_nearest) for y in other.raw]
    # bytes per slot: every exact product coefficient is below half a slot
    size = (max(map(abs, ia)).bit_length() + max(map(abs, ib)).bit_length()
            + n.bit_length()) // 8 + 1
    # offset each of the low n slots by half its range, so that they pack
    # and read back as unsigned bytes with no borrow between slots
    half = 1 << (8 * size - 1)
    offset = int.from_bytes(half.to_bytes(size, "little") * n, "little")
    packed_a, packed_b = (
        int.from_bytes(b"".join([(x + half).to_bytes(size, "little")
                                 for x in ints]), "little") - offset
        for ints in (ia, ib))
    low = (packed_a * packed_b + offset) & ((1 << (8 * size * n)) - 1)
    raw = low.to_bytes(size * n, "little")
    return [_rounded(int.from_bytes(raw[d * size:(d + 1) * size], "little")
                     - half, e - d * s, prec) for d in range(n)]


def _slope(slot: "RawSlot") -> float:
    """Bits per degree from the first to the last nonzero coefficient's
    top exponent (exp + bc); 0 with fewer than two. Kept on the slot."""
    if slot.slope is None:
        raw = slot.raw
        i = next((i for i, x in enumerate(raw) if x[1]), 0)
        j = next((j for j in range(len(raw) - 1, i, -1) if raw[j][1]), i)
        slot.slope = 0.0 if j == i else (
            raw[j][2] + raw[j][3] - raw[i][2] - raw[i][3]) / (j - i)
    return slot.slope


def _tilted(slot: "RawSlot", tilt: int) -> tuple:
    """The slot's ``_exact_mantissas`` at ``tilt``, kept for the last."""
    if slot.exact is None or slot.exact[2] != tilt:
        slot.exact = _exact_mantissas(slot.raw, tilt) + (tilt,)
    return slot.exact[:2]


def _rounded(man: int, exp: int, prec: int) -> tuple:
    """man * 2**exp rounded to the nearest at prec as a raw tuple: the
    libmpf ``normalize`` call of ``from_man_exp``, given the bit count."""
    if man < 0:  # bit_length() counts the bits of |man|
        return normalize(1, -man, exp, man.bit_length(), prec, round_nearest)
    return normalize(0, man, exp, man.bit_length(), prec, round_nearest)


def _exact_mantissas(raw, tilt: int = 0):
    """Integers m_j and one exponent e with c_j 2**(j tilt) == m_j 2**e
    exactly for the raw mpf tuples c_j, whose exponents move by j tilt;
    (None, 0) for a NaN or an infinity."""
    if any(map(_mpf_special, raw)):
        return None, 0
    e = min((exp + j * tilt for j, (_, man, exp, _) in enumerate(raw) if man),
            default=0)
    return [(int(-man if sign else man) << (exp + shift)) if man else 0
            for (sign, man, exp, _), shift in zip(raw, count(-e, tilt))], e


def _mpf_special(raw) -> bool:
    """Whether a raw mpf tuple is NaN or an infinity: those have no
    mantissa and a nonzero exponent field, where zero has both zero."""
    return not raw[1] and raw[2] != 0
