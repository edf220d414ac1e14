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
``float64`` (default) or ``mp<digits>``, e.g. ``mp50``.

Polynomial coefficients live in one numpy array (``coefficient_array``):
float64 when all are Python floats, object dtype otherwise.
``truncated_product`` is the one multiplication kernel per scalar type
behind ``series.poly_mul``, picked from those arrays: a numpy convolution
straight on float64, an exact big-integer (Kronecker) product rounded once
per coefficient for mpf, and the generic loop for every other scalar.
``polynomial_values`` is its counterpart for evaluation, behind ``series.SigmaJetEvaluator``: one exact
dot product per polynomial for mpf, one Horner loop over all the
polynomials stacked for Python floats at a float64 array, and Horner's
rule polynomial by polynomial for everything else.
"""
from __future__ import annotations

import math
import os
from typing import Any, Callable, Sequence, Union

import mpmath
import numpy as np
from mpmath.libmp import from_man_exp, round_nearest

Scalar = Any
CScalar = Any


class FloatContext:
    """IEEE double scalars backed by the math module."""

    name = "float64"
    eps = 2.220446049250313e-16

    def real(self, x: Union[int, float, str]) -> float:
        return float(x)

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
    Object arrays (of mpc) multiply element by element with ``*``.
    """
    if not _numeric_array(a) and not _numeric_array(b):
        return a * b
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


def mp_context(dps: int = 50) -> MPContext:
    """An ``MPContext``, with ``mpmath.mp`` set to the same precision for
    callers that compute with mpmath directly. Nothing in the package
    reads ``mpmath.mp``, and this is the only place that writes it."""
    ctx = MPContext(dps)
    mpmath.mp.dps = ctx.dps
    return ctx


def context_named(spec: str) -> Context:
    """Context for a precision name: ``float64`` or ``mp<digits>``."""
    spec = spec.strip().lower()
    if spec == "float64":
        return FLOAT64
    if spec.startswith("mp"):
        try:
            digits = int(spec[2:])
        except ValueError:
            raise ValueError(f"bad precision name: {spec!r}") from None
        return MPContext(digits)
    raise ValueError(f"bad precision name: {spec!r}")


def from_env() -> Context:
    """Context selected by SLAG_PRECISION (``float64`` or ``mp<digits>``);
    float64 when it is unset or blank."""
    spec = os.environ.get("SLAG_PRECISION", "").strip()
    if not spec:
        return FLOAT64
    return context_named(spec)


_FLOAT64, _OBJECT = np.dtype(np.float64), np.dtype(object)


def coefficient_array(cs) -> np.ndarray:
    """The coefficients ``cs`` as one 1-D array: float64 when every one is
    a Python float, else object dtype holding the scalars unchanged. A
    float64 array, or an object array holding more than Python floats, is
    taken as it is."""
    if isinstance(cs, np.ndarray):
        if cs.dtype == _FLOAT64:
            return cs
        if cs.dtype != _OBJECT:
            cs = cs.tolist()
    floats = all(type(x) is float for x in cs)
    if isinstance(cs, np.ndarray) and not floats:
        return cs
    # not np.array, which probes every scalar for a sequence interface
    return np.fromiter(cs, dtype=_FLOAT64 if floats else _OBJECT,
                       count=len(cs))


def finite_coefficients(cs: np.ndarray) -> bool:
    """Whether no coefficient of the array is NaN or infinite: one numpy
    test on float64; on object arrays, mpf by their special values and
    Python floats by ``math.isfinite`` (Fraction and int are finite)."""
    if cs.dtype == _FLOAT64:
        return bool(np.isfinite(cs).all())
    return not any(_mpf_special(x._mpf_) if hasattr(x, "_mpf_")
                   else isinstance(x, float) and not math.isfinite(x)
                   for x in cs.tolist())


def truncated_product(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Coefficients 0..len(ca)-1 of the product of two equal-length
    coefficient arrays, by the kernel of their scalar type.

    float64 arrays go straight through one numpy convolution. mpf of one
    mpmath context go through one exact big-integer product, each
    coefficient then rounded once at that context's precision. Everything
    else (Fraction, int, mixed scalars, and mpf holding NaN or an
    infinity) takes the generic loop, which is exact over an exact field.
    """
    if ca.dtype == _FLOAT64 and cb.dtype == _FLOAT64:
        return np.convolve(ca, cb)[:len(ca)]
    ca, cb = ca.tolist(), cb.tolist()
    mp = _mpf_context(_one_kind((ca, cb)))
    if mp is not None:
        out = _mpf_product(ca, cb, mp)
        if out is not None:
            return coefficient_array(out)
    return coefficient_array(_loop_product(ca, cb))


def polynomial_values(polys: Sequence[tuple]) -> Callable:
    """The function taking t to the values at t of the polynomials whose
    coefficient sequences (c_0, c_1, ...) are ``polys``, by the kernel of
    their scalar type, chosen once here for repeated evaluation.

    t is a scalar or a numpy array; on an array each value is an array of
    its shape, one element per element of t, except that Horner's rule
    leaves a constant polynomial a scalar. mpf of one mpmath context
    take the powers of each t once, each rounded at the context's
    precision, then one ``fdot`` of that context per polynomial: the dot
    product is summed exactly and rounded once, where Horner's rule rounds
    at every step. Python floats at a float64 array t take Horner's rule on
    all the polynomials at once (``_StackedHorner``), and return one array
    of shape (len(polys),) + t.shape. Everything else takes Horner's rule
    polynomial by polynomial, which numpy applies element by element. Each
    element of a float64 array value equals the value at that scalar t bit
    for bit.
    """
    kind = _one_kind(polys)
    if kind is float:
        stacked = _StackedHorner(polys)
        return lambda t: (stacked(t) if isinstance(t, np.ndarray)
                          and t.dtype == np.float64
                          else [horner(cs, t) for cs in polys])
    mp = _mpf_context(kind)
    if mp is None:
        return lambda t: [horner(cs, t) for cs in polys]
    return lambda t: _mpf_values(polys, mp, t)


class _StackedHorner:
    """Horner's rule for float polynomials of any lengths at a float64
    array t, one loop for all of them.

    The coefficients sit in one matrix, rows sorted longest first and
    ragged ends unused, so the polynomials still running at each degree
    are a leading block of rows. A polynomial joins the loop at its top
    coefficient, so every row takes exactly the operations of the scalar
    Horner's rule, whatever t holds: no padding zero is multiplied by t.
    """

    def __init__(self, polys):
        self.order = sorted(range(len(polys)), key=lambda i: -len(polys[i]))
        self.size = len(polys[self.order[0]])
        # degree-major, so that each degree's column is contiguous
        self.coeffs = np.zeros((self.size, len(polys), 1))
        for row, i in enumerate(self.order):
            self.coeffs[:len(polys[i]), row, 0] = polys[i]
        # rows running at degree j: those of length > j
        self.running = [sum(len(cs) > j for cs in polys)
                        for j in range(self.size)]
        self.unsort = np.argsort(self.order)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        rows = len(self.order)
        # t once per row, so that each step runs over contiguous memory
        x = np.broadcast_to(t.reshape(-1), (rows, t.size)).copy()
        acc = np.empty_like(x)
        top = self.size - 1
        live = self.running[top]
        acc[:live] = self.coeffs[top, :live]
        for j in range(top - 1, -1, -1):
            acc[:live] *= x[:live]
            acc[:live] += self.coeffs[j, :live]
            if self.running[j] > live:
                joining = self.running[j]
                acc[live:joining] = self.coeffs[j, live:joining]
                live = joining
        return acc[self.unsort].reshape((rows,) + t.shape)


def _one_kind(seqs):
    """The type of every scalar in the sequences, or None when they mix."""
    kinds = {type(x) for seq in seqs for x in seq}
    return kinds.pop() if len(kinds) == 1 else None


def _mpf_context(kind):
    """The mpmath context whose mpf type ``kind`` is, else None."""
    mp = getattr(kind, "context", None)
    return mp if mp is not None and kind is mp.mpf else None


def horner(cs: Sequence, t):
    """sum_j cs[j] t^j by Horner's rule, elementwise over numpy arrays."""
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = acc * t + c
    return acc


def _mpf_values(polys, mp, t) -> list:
    if isinstance(t, np.ndarray):
        out = [np.empty(t.shape, dtype=object) for _ in polys]
        for idx in np.ndindex(t.shape):
            for arr, v in zip(out, _mpf_values(polys, mp, t[idx])):
                arr[idx] = v
        return out
    x = mp.convert(t)
    powers = [mp.one]
    for _ in range(max(map(len, polys)) - 1):
        powers.append(powers[-1] * x)
    return [mp.fdot(cs, powers) for cs in polys]


def _loop_product(ca, cb) -> list:
    out = []
    for d in range(len(ca)):
        acc = ca[0] * cb[d]
        for j in range(1, d + 1):
            acc = acc + ca[j] * cb[d - j]
        out.append(acc)
    return out


def _mpf_product(ca, cb, mp) -> list | None:
    """Kronecker substitution: each operand becomes one Python int whose
    fixed-width slots hold its coefficients as exact integers over a shared
    exponent, so one multiplication gives every exact product coefficient.
    None when a coefficient is NaN or infinite, which the integers cannot
    hold."""
    ia, ea = _exact_mantissas(ca)
    ib, eb = _exact_mantissas(cb)
    if ia is None or ib is None:
        return None
    n = len(ca)
    bits = (max(abs(x) for x in ia).bit_length()
            + max(abs(x) for x in ib).bit_length() + n.bit_length())
    # every exact product coefficient is below 2**bits <= half a slot
    size = bits // 8 + 1
    width = 8 * size
    packed_a = packed_b = 0
    for x, y in zip(reversed(ia), reversed(ib)):
        packed_a = (packed_a << width) + x
        packed_b = (packed_b << width) + y
    # offset each of the low n slots by half its range, so that they read
    # back as unsigned bytes with no borrow between slots
    half = 1 << (width - 1)
    offset = int.from_bytes(half.to_bytes(size, "little") * n, "little")
    low = (packed_a * packed_b + offset) & ((1 << (width * n)) - 1)
    raw = low.to_bytes(size * n, "little")
    exp, prec, make = ea + eb, mp.prec, mp.make_mpf
    return [make(from_man_exp(
                int.from_bytes(raw[k:k + size], "little") - half,
                exp, prec, round_nearest))
            for k in range(0, size * n, size)]


def _exact_mantissas(cs):
    """Signed integers m_j and one exponent e with c_j == m_j * 2**e
    exactly, or (None, 0) when some c_j is NaN or infinite."""
    raw = [x._mpf_ for x in cs]
    if any(map(_mpf_special, raw)):
        return None, 0
    e = min((exp for _, man, exp, _ in raw if man), default=0)
    return [(int(-man if sign else man) << (exp - e)) if man else 0
            for sign, man, exp, _ in raw], e


def _mpf_special(raw) -> bool:
    """Whether a raw mpf tuple is NaN or an infinity: those have no
    mantissa and a nonzero exponent field, where zero has both zero."""
    return not raw[1] and raw[2] != 0
