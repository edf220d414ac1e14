"""Series algebra tests.

Exactness checks run over Fraction coefficients (the algebra is generic in
the scalar type, so ring identities hold exactly there); float tests pin
known coefficient tables and compare jets against finite differences.
"""
from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (finf, fnan, fninf, from_man_exp, fzero, mpf_add,
                          mpf_mul, mpf_neg, round_nearest)

from conftest import exact_value
from slagext import series
from slagext.arcs import graph_arc
from slagext.engine import _scale_ratio, extend_arc
from slagext.errors import (
    CompositionDomainError,
    PrecisionError,
    SeriesShapeError,
    SingularDivisionError,
)
from slagext.precision import (MPContext, PythonScalars, RawSlot,
                                coefficient_array, finite_coefficients,
                                fused_muladd, horner, polynomial_values,
                                scalar_kernel, truncated_product)
from slagext.series import (
    ComplexSeries,
    SigmaExpansion,
    SigmaJetEvaluator,
    TaylorPoly,
    analytic_compose,
    complex_int_pow,
    cs_from_real,
    cs_mul,
    poly_add,
    poly_antiderivative,
    poly_compose_inverse,
    poly_derivative,
    poly_eval,
    poly_from,
    poly_mul,
    poly_one,
    poly_pad,
    poly_reciprocal,
    poly_scale,
    poly_shift,
    poly_truncate,
    poly_zero,
)


def frac_poly(ints, cap=None):
    return poly_from([Fraction(v) for v in ints], cap=cap)


rational_coeffs = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    min_size=1,
    max_size=9,
)


def test_mul_matches_bruteforce_convolution():
    a = frac_poly([1, 2, 3, 4], cap=6)
    b = frac_poly([5, -1, 0, 2], cap=6)
    c = poly_mul(a, b)
    for d in range(7):
        expect = sum(
            a.coeffs[j] * b.coeffs[d - j] for j in range(d + 1)
        )
        assert c.coeffs[d] == expect


@given(rational_coeffs, rational_coeffs, rational_coeffs)
@settings(max_examples=60, deadline=None)
def test_ring_axioms_exact(xs, ys, zs):
    cap = 7
    a = frac_poly(xs, cap=cap)
    b = frac_poly(ys, cap=cap)
    c = frac_poly(zs, cap=cap)
    assert poly_mul(a, b) == poly_mul(b, a)
    assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
    left = poly_mul(a, poly_add(b, c))
    right = poly_add(poly_mul(a, b), poly_mul(a, c))
    assert left == right


def test_mul_requires_matching_caps():
    with pytest.raises(SeriesShapeError):
        poly_mul(frac_poly([1, 2]), frac_poly([1, 2, 3]))


_MP30, _MP40, _MP50 = MPContext(30), MPContext(40), MPContext(50)
_MP40_VALUES = st.floats(-1e6, 1e6).map(_MP40.real) | st.sampled_from(
    [_MP40.real(0), _MP40.real("-1e-30")])
_SCALARS = {
    "float": st.floats(width=64) | st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]),
    "mpf": _MP40_VALUES,
    "Fraction": st.fractions(max_denominator=50),
    # mp40 among other scalars, at least one per polynomial: ints enter its
    # slot as mp40, and mp30 beside it is a PrecisionError
    "mpf+int": _MP40_VALUES | st.integers(-10 ** 6, 10 ** 6),
    "mpf+mp30": _MP40_VALUES | st.floats(-1e6, 1e6).map(_MP30.real),
}


@st.composite
def _op_case(draw):
    kind = draw(st.sampled_from(sorted(_SCALARS)))
    n = draw(st.integers(1, 12))
    xs, ys = (draw(st.lists(_SCALARS[kind], min_size=n, max_size=n))
              for _ in range(2))
    if "+" in kind:
        for cs in (xs, ys):
            cs[draw(st.integers(0, n - 1))] = draw(_MP40_VALUES)
    factors = _SCALARS[kind] | st.integers(-10 ** 40, 10 ** 40)
    if "+" in kind:  # a slot times a Fraction takes the mpf arithmetic
        factors |= st.fractions(max_denominator=50)
    s = draw(factors)
    num = math.factorial(draw(st.integers(0, 40)))
    return xs, ys, s, num, draw(st.integers(1, 40)), draw(st.integers(0, n - 1))


@given(_op_case())
@settings(max_examples=100, deadline=None)
def test_array_ops_equal_the_scalar_loops(case):
    """Each array-backed operation gives, element by element, the scalar
    and the type that the same operation on the Python scalars gives:
    zero signs, NaN and infinities on floats, exact mpf and Fraction
    results, and no int or float zero mixed into mpf. The array is a
    ``RawSlot`` exactly when there are mpf of one context, ints among them
    entered as those mpf, exactly; mpf of two contexts raise
    ``PrecisionError``."""
    xs, ys, s, num, den, cap = case
    for cs in (xs, ys):
        if len({c.context for c in cs if hasattr(c, "_mpf_")}) > 1:
            with pytest.raises(PrecisionError):
                poly_from(cs)
            return
    a, b = poly_from(xs), poly_from(ys)
    # the ints beside mp40 as they enter its slot (exact at these sizes)
    xs, ys = ([_MP40.real(c) if type(c) is int else c for c in cs]
              if any(hasattr(c, "_mpf_") for c in cs) else cs
              for cs in (xs, ys))
    # numpy reports inf - inf, 0 * inf and overflow on float64 arrays as
    # warnings, which the recursion's entry points switch off; the values
    # are compared here
    with np.errstate(over="ignore", invalid="ignore"):
        cases = [
            (poly_add(a, b), [x + y for x, y in zip(xs, ys)]),
            (a - b, [x + -y for x, y in zip(xs, ys)]),
            (-a, [-x for x in xs]),
            (poly_scale(a, s), [x * s for x in xs]),
            (_scale_ratio(a, num, den), [x * num / den for x in xs]),
            (poly_truncate(a, cap), xs[:cap + 1]),
            (poly_derivative(a), [j * xs[j] for j in range(1, len(xs))]
             or [xs[0] * 0]),
            (poly_antiderivative(a),
             [xs[0] * 0] + [x / (j + 1) for j, x in enumerate(xs)]),
        ]
    for got, want in cases:
        assert ([(type(c), repr(c)) for c in got.coeffs]
                == [(type(c), repr(c)) for c in want])
        floats = all(type(c) is float for c in want)
        assert got.array.dtype == (np.float64 if floats else object)
        one_mp = len({type(c) for c in want}) == 1 and hasattr(want[0],
                                                                "_mpf_")
        assert (type(got.array) is RawSlot) is one_mp


# poly_mul multiplies floats by a numpy convolution and mpf by an exact
# big-integer product; this is the plain Cauchy loop they replace, kept as
# the reference (and still the kernel for every other scalar type)
def _loop_mul(ca, cb):
    out = []
    for d in range(len(ca)):
        acc = ca[0] * cb[d]
        for j in range(1, d + 1):
            acc = acc + ca[j] * cb[d - j]
        out.append(acc)
    return out


_float_coeff = st.builds(
    lambda sign, mant, exp: sign * math.ldexp(mant, exp),
    st.sampled_from([-1.0, 0.0, 1.0]),
    st.floats(min_value=0.5, max_value=1.0),
    st.integers(min_value=-60, max_value=60),
)


@st.composite
def _float_pair(draw):
    n = draw(st.integers(min_value=1, max_value=97))
    coeffs = st.lists(_float_coeff, min_size=n, max_size=n)
    return draw(coeffs), draw(coeffs)


@given(_float_pair())
@settings(max_examples=80, deadline=None)
def test_float_kernel_within_summation_bound_of_loop(pair):
    xs, ys = pair
    got = poly_mul(poly_from(xs), poly_from(ys)).coeffs
    assert isinstance(got, tuple) and len(got) == len(xs)
    assert all(type(c) is float for c in got)
    eps = 2.0 ** -52  # float64 machine epsilon, fixed by the dtype
    for d, (g, w) in enumerate(zip(got, _loop_mul(xs, ys))):
        scale = sum(abs(xs[j] * ys[d - j]) for j in range(d + 1))
        assert abs(g - w) <= 4 * (d + 1) * eps * scale


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_kernel_propagates_nan_and_inf_like_the_loop(bad):
    xs = [1.0, bad, 0.0, 2.0, -0.5]
    ys = [0.1, 0.2, 0.3, 0.4, 0.5]
    got = poly_mul(poly_from(xs), poly_from(ys)).coeffs
    want = _loop_mul(xs, ys)
    assert [math.isnan(g) for g in got] == [math.isnan(w) for w in want]
    assert [g for g in got if not math.isnan(g)] == [
        w for w in want if not math.isnan(w)]
    assert math.isnan(got[1]) is math.isnan(bad)


_ANY_FLOAT = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf,
                                         math.nan]), st.floats())


@st.composite
def _equal_length_arrays(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    coeffs = st.lists(_ANY_FLOAT, min_size=n, max_size=n)
    return np.array(draw(coeffs)), np.array(draw(coeffs))


@given(_equal_length_arrays())
@settings(max_examples=150, deadline=None)
def test_float_kernel_is_np_convolve(pair):
    """The float64 kernel calls numpy's correlate directly; byte for byte
    it is np.convolve truncated, signed zeros, infinities and NaN too."""
    a, b = pair
    with np.errstate(over="ignore", invalid="ignore"):
        got = truncated_product(a, b)
        want = np.convolve(a, b)[:len(a)]
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dps", [16, 40, 60])
def test_mp_kernel_is_correctly_rounded(dps):
    # a_j = r 3^j and b_j = r' 0.2^j: at cap 96 the b_j span more than
    # 2^200 and the a_j 2^150, so each product coefficient sums terms of
    # very different sizes; each result must still be within half an ulp
    ctx = MPContext(dps)
    rng = random.Random(dps)
    for n in (1, 2, 7, 25, 65, 97):
        xs = [ctx.real(rng.uniform(-1, 1)) * ctx.real(3) ** j
              for j in range(n)]
        ys = [ctx.real(rng.uniform(-1, 1)) * ctx.real("0.2") ** j
              for j in range(n)]
        if n > 2:
            xs[n // 2] = ctx.real(0)
        got = poly_mul(poly_from(xs), poly_from(ys)).coeffs
        exact = _loop_mul([exact_value(x) for x in xs],
                          [exact_value(y) for y in ys])
        prec = xs[0].context.prec
        assert prec >= dps * 3.32
        for g, e in zip(got, exact):
            assert g.context is xs[0].context
            assert abs(exact_value(g) - e) <= abs(e) / 2 ** prec


def _dyadic_product(xs, ys, prec):
    """The truncated product of raw mpf tuples, each coefficient the exact
    sum of the terms' (man, exp) products as Python ints, rounded once."""
    out = []
    for d in range(len(xs)):
        terms = [((-1) ** (sx ^ sy) * mx * my, ex + ey)
                 for (sx, mx, ex, _), (sy, my, ey, _) in zip(xs, ys[d::-1])
                 if mx and my]
        e = min((x for _, x in terms), default=0)
        out.append(from_man_exp(sum(m << (x - e) for m, x in terms), e,
                                prec, round_nearest))
    return out


@st.composite
def _mp_slot_case(draw):
    """Two mp30 or mp50 operands of one length, coefficient j scaled by
    2**(g j), with zeros and random signs; "cancel" pairs a_j with
    b_j = (-1)**j a_j, whose odd product coefficients are exactly 0, and
    "tie" makes product coefficient 1 (m + 1/2) 2**g with m of prec bits,
    a tie that rounds to even."""
    mp = draw(st.sampled_from([_MP30, _MP50])).real(0).context
    prec, n, g = mp.prec, draw(st.integers(1, 60)), draw(st.integers(-60, 60))
    coeff = st.tuples(st.just(0) | st.integers(1 - 2 ** prec, 2 ** prec - 1),
                      st.integers(-prec, prec))
    a, b = (draw(st.lists(coeff, min_size=n, max_size=n)) for _ in range(2))
    shape = draw(st.sampled_from(["random", "cancel", "tie"]))
    if shape == "cancel":
        b = [((-1) ** j * m, e) for j, (m, e) in enumerate(a)]
    if shape == "tie" and n > 1:
        m = draw(st.integers(2 ** (prec - 1), 2 ** prec - 1))
        a[:2], b[:2] = [(1, 0), (1, -1)], [(1, 0), (m, 0)]
    return mp, [[from_man_exp(m, e + g * j) for j, (m, e) in enumerate(cs)]
                for cs in (a, b)]


@given(_mp_slot_case(), st.lists(st.integers(-80, 80), max_size=3))
@settings(max_examples=80, deadline=None)
def test_mp_kernel_is_the_exact_sum_rounded_once_at_any_tilt(case, tilts):
    """The mpf kernel on two slots against the exact dyadic oracle, bit for
    bit and with int signs, at the tilt it picks from the slots' slopes and
    at tilts forced through those slopes: 0 and others. The tilt sets only
    the slot width, never a bit."""
    mp, (xs, ys) = case
    want = _dyadic_product(xs, ys, mp.prec)
    for tilt in [None, 0] + tilts:
        a, b = RawSlot(list(xs), mp), RawSlot(list(ys), mp)
        if tilt is not None:
            a.slope = b.slope = -tilt
        got = truncated_product(a, b)
        assert type(got) is RawSlot and got.raw == want
        assert all(type(x[0]) is int for x in got.raw)
        assert tilt is None or a.exact[2] == b.exact[2] == tilt


def test_mp_kernel_with_a_constant_factor():
    """A factor whose coefficients past the first are zero (a constant or
    zero) on either side: the exact dyadic oracle's bits, and both slots
    keep the mantissas at the tilt the kernel picked."""
    mp = _MP30.real(0).context
    rng = random.Random(30)
    ys = [from_man_exp(rng.randrange(-2 ** 99, 2 ** 99), -5 * j - 99)
          for j in range(12)]
    for c in (fzero, from_man_exp(3, -2), from_man_exp(-2 ** 99 + 1, 40)):
        xs = [c] + [fzero] * 11
        want = _dyadic_product(xs, ys, mp.prec)
        for a, b in ((xs, ys), (ys, xs)):
            slot_a, slot_b = RawSlot(list(a), mp), RawSlot(list(b), mp)
            assert truncated_product(slot_a, slot_b).raw == want
            assert slot_a.exact[2] == slot_b.exact[2] is not None


def test_mp_kernel_on_a_slice_of_a_tilted_slot():
    """A slot keeps the mantissas a product tilted, and its slices share
    them: a slice from ``start`` holds c_(start+j) 2**(j s) == m 2**e' with
    e' = e - start s. The slices' own product takes them as they are."""
    mp = _MP30.real(0).context
    rng = random.Random(20)
    xs, ys = ([from_man_exp(rng.randrange(-2 ** 99, 2 ** 99), -7 * j - 99)
               for j in range(40)] for _ in range(2))
    a, b = RawSlot(xs, mp), RawSlot(ys, mp)
    truncated_product(a, b)
    ints, e, s = a.exact
    assert s == 7
    for start, stop in ((5, 23), (0, 40), (39, 40)):
        cut, other = a[start:stop], b[start:stop]
        assert cut.exact[1:] == (e - start * s, s)
        for j, (m, x) in enumerate(zip(cut.exact[0], cut.raw)):
            assert exact_value(mp.make_mpf(x)) * Fraction(2) ** (j * s) == (
                m * Fraction(2) ** cut.exact[1])
        kept = cut.exact
        got = truncated_product(cut, other)
        assert cut.exact is kept
        assert got.raw == _dyadic_product(xs[start:stop], ys[start:stop],
                                          mp.prec)


_FUSED_PRECS = (53, 100, 136, 200)
_FUSED_GAPS = {p: st.integers(-3 * p - 16, 3 * p + 16) for p in _FUSED_PRECS}
_FUSED_BELOW = {p: st.integers(-p - 8, 0) for p in _FUSED_PRECS}
_FUSED_KIND = st.integers(0, 39)
_FUSED_RAW = st.integers(0, 2 ** 416 - 1)
_FUSED_SPECIAL = (fzero, fnan, finf, fninf)


@st.composite
def _fused_case(draw):
    """(prec, c, a, b) as raw tuples: short mantissas, mantissas of up to
    2 prec bits, both signs, c's top exponent from 0 to past 3 prec bits
    either side of a*b's, sums that cancel to zero, and zeros, infinities
    and NaN. A quarter of the cases round a*b at a tie: a 1-bit times an
    odd (prec + 1)-bit mantissa, with c at or below the product, where the
    product's last bit shows. Some c sit just below a rounding midpoint,
    where only the hand-off to ``mpf_add`` matches it. Each number takes a
    kind and one raw draw, since the draws are most of a deep run's time."""
    prec = draw(st.sampled_from(_FUSED_PRECS))

    def mantissa(kind):
        # kinds 4-7: 1 to 4 bits; 8-11: prec + 1 bits; the rest: 1 to
        # 2 prec bits; all odd, either sign
        raw = draw(_FUSED_RAW)
        bits = (kind - 3 if kind < 8 else prec + 1 if kind < 12
                else 1 + raw % (2 * prec))
        man = raw >> (416 - bits) | 1 << (bits - 1) | 1
        return -man if raw & 1 else man

    tie = draw(_FUSED_KIND) < 10
    a, b = (_FUSED_SPECIAL[kind] if kind < 4 else
            from_man_exp(mantissa(kind), draw(_FUSED_GAPS[200]))
            for kind in ((4, 8) if tie else
                         (draw(_FUSED_KIND), draw(_FUSED_KIND))))
    kind = draw(_FUSED_KIND)
    if kind < 4:
        return prec, _FUSED_SPECIAL[kind], a, b
    if kind < 8:  # c = -round(a*b): the sum is zero
        return prec, mpf_neg(mpf_mul(a, b, prec, round_nearest)), a, b
    m = mantissa(kind)
    if kind < 10:  # 2 prec bits, one unit below a midpoint at prec: a
        # far smaller a*b crosses it, the sticky bit of mpf_add does not
        m = (abs(m) >> 1 << prec | (1 << (prec - 1)) - 1) * (m // abs(m))
    top = a[2] + a[3] + b[2] + b[3]  # a*b's top exponent, to within a bit
    gap = draw((_FUSED_BELOW if tie else _FUSED_GAPS)[prec])
    return prec, from_man_exp(m, top + gap - abs(m).bit_length()), a, b


@given(_fused_case())
@settings(deadline=None)
def test_fused_muladd_is_mpf_add_of_mpf_mul(case):
    """The fused kernel is mpf ``c + a*b``, tuple for tuple. Run deep with
    ``--hypothesis-profile=deep`` (tests/conftest.py)."""
    prec, c, a, b = case
    want = mpf_add(c, mpf_mul(a, b, prec, round_nearest), prec,
                   round_nearest)
    assert fused_muladd(c, a, b, prec) == want


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_mp_kernel_propagates_nan_and_inf_like_the_loop(bad):
    ctx = MPContext(40)
    xs = [ctx.real(v) for v in ("1", bad, "0", "2")]
    ys = [ctx.real(v) for v in ("0.1", "0.2", "0.3", "0.4")]
    got = poly_mul(poly_from(xs), poly_from(ys)).coeffs
    want = _loop_mul(xs, ys)
    assert [repr(g) for g in got] == [repr(w) for w in want]
    assert "nan" in repr(got[2]) or "inf" in repr(got[2])


@pytest.mark.parametrize("cs, finite", [
    pytest.param([0.0, -0.0, 1e308, -2.5], True, id="float64"),
    pytest.param([0.0, math.inf], False, id="float64-inf"),
    pytest.param([math.nan, 1.0], False, id="float64-nan"),
    pytest.param(["0", "-1e400", "2"], True, id="mpf"),
    pytest.param(["1", "-inf"], False, id="mpf-inf"),
    pytest.param(["nan", "0"], False, id="mpf-nan"),
    pytest.param([Fraction(1, 3), Fraction(0)], True, id="fraction"),
    pytest.param([Fraction(1, 3), math.inf], False, id="mixed-inf"),
])
def test_finite_coefficients(cs, finite):
    ctx = MPContext(30)
    cs = [ctx.real(c) if isinstance(c, str) else c for c in cs]
    assert finite_coefficients(poly_from(cs).array) is finite


def test_mp_kernel_ignores_other_contexts():
    import mpmath

    ctx = MPContext(40)
    rng = random.Random(7)
    xs = [ctx.real(rng.uniform(-1, 1)) / 3 ** j for j in range(30)]
    ys = [ctx.real(rng.uniform(-1, 1)) for _ in range(30)]
    before = poly_mul(poly_from(xs), poly_from(ys)).coeffs
    dps = mpmath.mp.dps
    try:
        MPContext(20)
        mpmath.mp.dps = 15
        after = poly_mul(poly_from(xs), poly_from(ys)).coeffs
    finally:
        mpmath.mp.dps = dps
    assert [x._mpf_ for x in after] == [x._mpf_ for x in before]
    assert all(x.context is xs[0].context for x in before + after)


def _mpf_values(values, polys, t: np.ndarray) -> np.ndarray:
    """``values``, the ``polynomial_values`` of polynomials of mpf of one
    context, at the elements of t as they enter that context, as mpf of
    shape (len(polys),) + t.shape."""
    kernel = scalar_kernel(coefficient_array(polys[0]))
    rows = values(kernel.lift(np.ravel(t).tolist()))
    return np.array([list(map(kernel.mp.make_mpf, row)) for row in rows],
                    dtype=object).reshape((len(polys),) + t.shape)


@given(st.lists(st.floats(-4, 4, allow_nan=False), min_size=1, max_size=40),
       st.lists(st.integers(1, 40), min_size=1, max_size=4),
       st.floats(-1.5, 1.5, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_mp_values_within_term_bound_of_exact(base, lengths, tf):
    # one exact dot product per polynomial over powers t^j that are each
    # rounded j - 1 times, then one rounding: the error is at most
    # (cap + 2) u sum_j |c_j t^j|, u the unit roundoff, from the term
    # magnitudes of the exact value
    ctx = MPContext(40)
    x = ctx.real(tf) / 3  # a full-precision t
    polys = [tuple(ctx.real(c) / (j + 1)
                   for j, c in enumerate((base * 40)[:m])) for m in lengths]
    got = _mpf_values(polynomial_values(polys), polys, np.asarray(x))
    assert got.shape == (len(polys),)
    u = Fraction(1, 2 ** x.context.prec)
    xe = exact_value(x)
    for cs, g in zip(polys, got):
        assert g.context is x.context
        terms = [exact_value(c) * xe ** j for j, c in enumerate(cs)]
        bound = (len(cs) + 1) * u * sum(abs(v) for v in terms)
        assert abs(exact_value(g) - sum(terms)) <= bound


def test_mp_values_follow_the_scalars_context_not_mpmath_mp():
    import mpmath

    ctx = MPContext(40)
    rng = random.Random(11)
    polys = [tuple(ctx.real(rng.uniform(-1, 1)) for _ in range(33))
             for _ in range(5)]
    values = polynomial_values(polys)
    x = ctx.real(1) / 7
    before = _mpf_values(values, polys, np.asarray(x)).tolist()
    dps = mpmath.mp.dps
    try:
        mpmath.mp.dps = 15
        after = _mpf_values(values, polys, np.asarray(x)).tolist()
        on_float = _mpf_values(values, polys, np.asarray(0.125)).tolist()
    finally:
        mpmath.mp.dps = dps
    assert [v._mpf_ for v in after] == [v._mpf_ for v in before]
    assert all(v.context is x.context for v in before + after + on_float)
    # a float t enters exactly, as it does in Horner's rule
    assert on_float == _mpf_values(values, polys,
                                   np.asarray(ctx.real(0.125))).tolist()


def test_mp_values_equal_fdot():
    """The mp jet kernel against the context's own ``fdot`` over the same
    powers, each t^j rounded from t^(j-1) t, bit for bit: f_k, f_k' and
    f_k'' of an mp40 chart at t = 0, +-k/23, 1e-30 and a Python float, and
    two rows holding a NaN and an infinite coefficient."""
    ctx = MPContext(40)
    arc = graph_arc(["0", "0", "0.5", "0.01", "-0.01"], ctx)
    terms = list(extend_arc(arc, ctx.real("0.03"), n=2, K=8, D=48,
                            ctx=ctx).phi.terms)
    firsts = [poly_derivative(f) for f in terms]
    polys = [f.coeffs for f in terms + firsts
             + [poly_derivative(f) for f in firsts]]
    for j, bad in ((5, "nan"), (17, "inf")):
        polys.append(polys[j][:3] + (ctx.real(bad),) + polys[j][4:])
    values = polynomial_values(polys)
    ts = [ctx.real(0), ctx.real("1e-30")] + [
        ctx.real(s * k) / 23 for k in (1, 4, 11, 22) for s in (1, -1)]
    grid = np.empty((2, 5), dtype=object)
    grid.flat[:] = ts
    for t in (grid, np.asarray(-0.0371)):
        got = _mpf_values(values, polys, t)
        for idx in np.ndindex(t.shape):
            x = ctx.real(t[idx])
            powers = [ctx.real(1)]
            while len(powers) < len(polys[0]):
                powers.append(powers[-1] * x)
            want = [x.context.fdot(cs, powers)._mpf_ for cs in polys]
            assert [v._mpf_ for v in got[(slice(None),) + idx]] == want


def test_values_on_arrays_are_the_scalar_values():
    ctx = MPContext(30)
    rng = random.Random(4)
    polys = [tuple(ctx.real(rng.uniform(-1, 1)) for _ in range(m))
             for m in (1, 6, 12)]
    floats = [tuple(float(c) for c in cs) for cs in polys]
    ts = np.array([[-0.3], [0.0], [0.7]])
    raw = polynomial_values(polys)
    for ps, values in ((polys, lambda t: _mpf_values(raw, polys, t)),
                       (floats, polynomial_values(floats))):
        arrays = values(ts)
        assert arrays.shape == (len(ps),) + ts.shape
        for idx in np.ndindex(ts.shape):
            t = float(ts[idx])
            # mpf at each point on its own; floats by Horner's rule on
            # Python floats
            want = (values(np.asarray(t)).tolist() if ps is polys
                    else [horner(cs, t) for cs in ps])
            assert [a[idx] for a in arrays] == want


def test_reciprocal_geometric_series():
    # 1/(1 - t) = sum t^k, exact over the rationals
    a = frac_poly([1, -1], cap=8)
    r = poly_reciprocal(a)
    assert r.coeffs == tuple(Fraction(1) for _ in range(9))


@given(rational_coeffs)
@settings(max_examples=60, deadline=None)
def test_reciprocal_remultiplies_to_one(xs):
    cap = 7
    a = frac_poly(xs, cap=cap)
    if a.coeffs[0] == 0:
        with pytest.raises(SingularDivisionError):
            poly_reciprocal(a)
        return
    prod = poly_mul(a, poly_reciprocal(a))
    assert prod == poly_one(cap, like=Fraction(1))


def test_derivative_antiderivative_caps_and_roundtrip():
    a = frac_poly([3, 1, 4, 1, 5])
    da = poly_derivative(a)
    assert da.cap == a.cap - 1
    back = poly_antiderivative(da)
    assert back.cap == a.cap
    assert back.coeffs[1:] == a.coeffs[1:]
    assert back.coeffs[0] == 0


def test_arctan_known_coefficients():
    # classical alternating odd series
    t = frac_poly([0, 1], cap=8)
    y = analytic_compose("arctan", t)
    expect = [0, 1, 0, Fraction(-1, 3), 0, Fraction(1, 5), 0, Fraction(-1, 7), 0]
    assert list(y.coeffs) == expect


def test_tan_known_coefficients():
    t = frac_poly([0, 1], cap=8)
    y = analytic_compose("tan", t)
    expect = [
        0,
        1,
        0,
        Fraction(1, 3),
        0,
        Fraction(2, 15),
        0,
        Fraction(17, 315),
        0,
    ]
    assert list(y.coeffs) == expect


@given(rational_coeffs)
@settings(max_examples=40, deadline=None)
def test_arctan_tan_inverse_pair(xs):
    cap = 6
    a = frac_poly([0] + xs, cap=cap)
    assert analytic_compose("arctan", analytic_compose("tan", a)) == a
    assert analytic_compose("tan", analytic_compose("arctan", a)) == a


def test_analytic_compose_rejects_nonzero_constant():
    with pytest.raises(CompositionDomainError):
        analytic_compose("arctan", frac_poly([1, 1], cap=4))
    with pytest.raises(ValueError):
        analytic_compose("cosh", frac_poly([0, 1], cap=4))


def test_arctan_pointwise_against_math():
    t = poly_from([0.0, 1.0], cap=15)
    y = analytic_compose("arctan", t)
    val = poly_eval(y, 0.1)
    assert abs(val - math.atan(0.1)) < 1e-16 + abs(0.1) ** 17


def test_compose_and_reversion():
    cap = 6
    a = frac_poly([0, 1, 1], cap=cap)  # t + t^2
    ident = poly_from([Fraction(0), Fraction(1)], cap=cap)
    q = poly_compose_inverse(ident, a)
    # classical: h - h^2 + 2h^3 - 5h^4 + 14h^5 - 42h^6 (Catalan numbers)
    assert list(q.coeffs) == [0, 1, -1, 2, -5, 14, -42]
    assert poly_compose_inverse(a, a) == ident


def test_reversion_rejects_singular_linear_term():
    ident = poly_from([Fraction(0), Fraction(1)], cap=4)
    with pytest.raises(SingularDivisionError):
        poly_compose_inverse(ident, frac_poly([0, 0, 1], cap=4))
    with pytest.raises(CompositionDomainError):
        poly_compose_inverse(ident, frac_poly([1, 1], cap=4))


def _horner_compose(outer, inner):
    """outer(inner(t)) at the common cap, by Horner; inner(0) = 0."""
    acc = poly_zero(outer.cap, like=outer.coeffs[0])
    for c in reversed(outer.coeffs):
        acc = poly_add(poly_mul(acc, inner),
                       poly_from([c], cap=outer.cap))
    return acc


@given(rational_coeffs, rational_coeffs,
       st.fractions(min_value=-5, max_value=5, max_denominator=12)
       .filter(lambda x: x != 0))
@settings(max_examples=60, deadline=None)
def test_compose_inverse_undoes_inner_exactly(vs, us, u1):
    # w = v o u^-1, so w o u gives v back, coefficient for coefficient
    cap = 8
    v = frac_poly(vs, cap=cap)
    u = frac_poly([0, u1] + us, cap=cap)
    w = poly_compose_inverse(v, u)
    assert _horner_compose(w, u) == v


def test_shift_exact():
    p = frac_poly([0, 0, 1], cap=2)  # t^2
    s = poly_shift(p, Fraction(1))
    assert list(s.coeffs) == [1, 2, 1]
    p = frac_poly([2, -1, 3, 5], cap=3)
    h = Fraction(1, 2)
    s = poly_shift(p, h)
    for tv in [Fraction(0), Fraction(1, 3), Fraction(-2, 5)]:
        assert poly_eval(s, tv) == poly_eval(p, tv + h)


def test_truncate_and_pad():
    p = frac_poly([1, 2, 3], cap=2)
    assert poly_truncate(p, 1).coeffs == (1, 2)
    assert poly_pad(p, 4).coeffs == (1, 2, 3, 0, 0)
    with pytest.raises(SeriesShapeError):
        poly_truncate(p, 3)
    with pytest.raises(SeriesShapeError):
        poly_pad(p, 1)


def test_complex_int_pow_matches_pointwise_power():
    re = poly_from([1.0, 0.3, -0.2], cap=10)
    im = poly_from([0.5, -0.1, 0.4], cap=10)
    cs = ComplexSeries(re, im)
    p = complex_int_pow(cs, 5)
    tv = 0.07
    base = complex(poly_eval(re, tv), poly_eval(im, tv))
    got = complex(poly_eval(p.re, tv), poly_eval(p.im, tv))
    # truncation error is far below the sample radius here
    assert abs(got - base**5) < 1e-12


def test_complex_mul_is_complex_convolution():
    a = ComplexSeries(frac_poly([1, 2], cap=3), frac_poly([0, 1], cap=3))
    b = ComplexSeries(frac_poly([0, 1], cap=3), frac_poly([1, 0], cap=3))
    c = cs_mul(a, b)
    # (1+2t + i t)(t + i) = (t + 2t^2 - t) + i(1 + 2t + t^2)
    assert list(c.re.coeffs) == [0, 0, 2, 0]
    assert list(c.im.coeffs) == [1, 2, 1, 0]


def _sample_expansion():
    cap = 10
    f0 = poly_from([0.0, 0.0, 0.0, 1 / 6, 0.02], cap=cap)
    f1 = poly_from([0.0, -0.5, 0.0, 0.125], cap=cap)
    f2 = poly_from([0.0, -0.375, 0.01], cap=cap)
    return SigmaExpansion(n=2, terms=(f0, f1, f2))


def test_sigma_eval_partials_match_finite_differences():
    exp = _sample_expansion()
    t0, s0 = 0.13, 0.21
    h = 1e-6

    def phi(t, s):
        return SigmaJetEvaluator(exp).jet(t, s).phi

    jet = SigmaJetEvaluator(exp).jet(t0, s0)
    fd_t = (phi(t0 + h, s0) - phi(t0 - h, s0)) / (2 * h)
    fd_s = (phi(t0, s0 + h) - phi(t0, s0 - h)) / (2 * h)
    fd_tt = (phi(t0 + h, s0) - 2 * phi(t0, s0) + phi(t0 - h, s0)) / h**2
    fd_ss = (phi(t0, s0 + h) - 2 * phi(t0, s0) + phi(t0, s0 - h)) / h**2
    fd_st = (
        phi(t0 + h, s0 + h)
        - phi(t0 + h, s0 - h)
        - phi(t0 - h, s0 + h)
        + phi(t0 - h, s0 - h)
    ) / (4 * h * h)
    assert abs(jet.phi_t - fd_t) < 1e-9
    assert abs(jet.phi_sigma - fd_s) < 1e-9
    assert abs(jet.phi_tt - fd_tt) < 1e-4
    assert abs(jet.phi_sigmasigma - fd_ss) < 1e-4
    assert abs(jet.phi_sigmat - fd_st) < 1e-6
    assert abs(jet.phi_sigma_over_sigma - jet.phi_sigma / s0) < 1e-15


def test_sigma_eval_regular_at_sigma_zero():
    exp = _sample_expansion()
    t0 = 0.2
    jet = SigmaJetEvaluator(exp).jet(t0, 0.0)
    f1_at = poly_eval(exp.terms[1], t0)
    assert jet.phi_sigma == 0.0
    assert jet.phi_sigmat == 0.0
    assert abs(jet.phi_sigma_over_sigma - f1_at) < 1e-16
    assert abs(jet.phi_sigmasigma - f1_at) < 1e-16


def test_sigma_eval_even_in_sigma():
    exp = _sample_expansion()
    for s in (0.1, 0.23):
        a = SigmaJetEvaluator(exp).jet(0.11, s)
        b = SigmaJetEvaluator(exp).jet(0.11, -s)
        assert a.phi == b.phi
        assert a.phi_sigma == -b.phi_sigma
        assert a.phi_sigmasigma == b.phi_sigmasigma
        assert a.phi_sigma_over_sigma == b.phi_sigma_over_sigma


def test_sigma_expansion_invariants():
    cap = 6
    good0 = poly_zero(cap)
    with pytest.raises(ValueError):
        SigmaExpansion(n=2, terms=(poly_from([0.1], cap=cap),))
    with pytest.raises(ValueError):
        SigmaExpansion(n=1, terms=(good0,))
    with pytest.raises(SeriesShapeError):
        SigmaExpansion(n=2, terms=(good0, poly_zero(cap - 1)))
    with pytest.raises(ValueError):
        SigmaExpansion(n=2, terms=(good0, poly_from([0.3], cap=cap)))


def test_mixed_precision_scalars_supported():
    import mpmath

    with mpmath.workdps(40):
        a = poly_from([mpmath.mpf(0), mpmath.mpf(1)], cap=6)
        y = analytic_compose("tan", a)
        assert abs(y.coeffs[3] - mpmath.mpf(1) / 3) < mpmath.mpf(10) ** -35
        r = poly_reciprocal(poly_from([mpmath.mpf(1), mpmath.mpf(-1)],
                                      cap=6))
        assert r.coeffs[6] == 1


def _loop_inputs(kind):
    """Seeded inputs of the series loops in one scalar type: a unit-led
    polynomial, one vanishing at 0 with zero coefficients, an inner series
    of the reversion, a shift, and copies holding NaN and an infinity."""
    rng = random.Random(29)
    if kind == "Fraction":
        cap, scalar = 8, Fraction
    elif kind == "float":
        cap, scalar = 30, lambda m, d: m / d
    else:
        ctx = MPContext(int(kind[2:]))
        cap, scalar = 30, lambda m, d: ctx.real(m) / d
    cs = [scalar(rng.randint(-99, 99), 3 + j) for j in range(cap + 1)]
    a = [scalar(1, 1)] + cs[1:]
    b = [scalar(0, 1)] + cs[1:]
    b[2] = b[5] = scalar(0, 1)
    inner = [scalar(0, 1), scalar(5, 4)] + cs[2:]
    if kind == "float":
        a[2], b[3] = -0.0, -0.0
    return cap, a, b, inner, cs, scalar(1, 7)


def _loop_digest(polys) -> str:
    text = "\n".join(f"{type(c).__name__}:{getattr(c, '_mpf_', c)!r}"
                     for p in polys for c in p.coeffs)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("kind, want", [
    ("mp30",
     "60c7a5694b23c4ad81e56b3972f19f4b3d4a935acff4ce4cce542ae1469d7d63"),
    ("mp40",
     "7e9c496153be958533160be47bdcc660c6d4f011fce76f44552aa94df78c1c23"),
    ("float",
     "e629ac235d233bfdf208ea452036e2d6be060966bf7dedf77a9bd87ff8bd8c37"),
    ("Fraction",
     "982ab87b7f28772bb201840d1cc403e62ba454e1a37dbdc4341ebb0e2b88ff3c"),
])
def test_series_loops_are_frozen(kind, want):
    """poly_reciprocal, tan, arctan, poly_compose_inverse and poly_shift,
    every coefficient bit for bit and with its type, as the loops on the
    Python scalars made them; at mp30, mp40 and float also on NaN and
    infinite coefficients and with a float shift."""
    cap, a, b, inner, cs, h = _loop_inputs(kind)
    out = [poly_reciprocal(poly_from(a)),
           analytic_compose("tan", poly_from(b)),
           analytic_compose("arctan", poly_from(b)),
           poly_compose_inverse(poly_from(cs), poly_from(inner)),
           poly_shift(poly_from(cs), h)]
    if kind != "Fraction":
        nan, inf = a[0] * math.nan, a[0] * math.inf
        out += [poly_reciprocal(poly_from(a[:4] + [nan] + a[5:])),
                poly_shift(poly_from(cs[:3] + [inf] + cs[4:]), h),
                analytic_compose("tan", poly_from(b[:6] + [nan] + b[7:])),
                poly_shift(poly_from(cs), -0.3)]
    assert all(len(p.coeffs) == cap + 1 for p in out)
    assert _loop_digest(out) == want


_SPECIAL_MP40 = st.sampled_from([_MP40.real(v) for v in ("nan", "inf", "-inf")])
# a coefficient array's form: mp40 alone or with ints or floats among them
# (a slot), mp40 beside mp30 or a Fraction (a PrecisionError), float64, or
# objects of other types
_FORMS = {
    "mp40": None,
    "mp40+int": st.integers(-10 ** 6, 10 ** 6),
    "mp40+mp30": st.floats(-1e6, 1e6).map(_MP30.real),
    "mp40+Fraction": st.fractions(max_denominator=50),
    "mp40+float": st.floats(-1e6, 1e6),
}
_SHIFTS = (st.floats(-2, 2) | st.integers(-5, 5) | _MP40_VALUES
           | st.floats(-2, 2).map(_MP30.real) | st.fractions(max_denominator=9)
           | st.floats(-2, 2).map(lambda x: _MP50.real(x) / 3))


@st.composite
def _form_coeffs(draw, n):
    form = draw(st.sampled_from(sorted(_FORMS) + ["float64", "object"]))
    if form == "float64":
        return draw(st.lists(st.floats(-1e6, 1e6) | st.sampled_from(
            [0.0, -0.0, math.nan, math.inf]), min_size=n, max_size=n))
    if form == "object":
        return draw(st.lists(st.fractions(max_denominator=50)
                             | st.integers(-99, 99), min_size=n, max_size=n))
    cs = draw(st.lists(_MP40_VALUES | _SPECIAL_MP40, min_size=n, max_size=n))
    if _FORMS[form] is not None:  # at least one scalar of the other type
        cs[draw(st.integers(0, n - 1))] = draw(_FORMS[form])
    return cs


@st.composite
def _loop_case(draw):
    n = draw(st.integers(1, 7))
    a, outer, inner = (draw(_form_coeffs(n)) for _ in range(3))
    # most tan and reversion inputs start at zero, as those loops require
    if draw(st.integers(0, 3)):
        a[0], inner[0] = a[0] * 0, inner[0] * 0
    return a, outer, inner, draw(_SHIFTS)


def _loop_outcomes(a, outer, inner, h) -> list:
    """Each loop's coefficients (type and bits, a NaN as a NaN) or the type
    of the error it raises."""
    calls = [lambda: poly_reciprocal(TaylorPoly(a)),
             lambda: analytic_compose("tan", TaylorPoly(a)),
             lambda: poly_compose_inverse(TaylorPoly(outer),
                                          TaylorPoly(inner)),
             lambda: poly_shift(TaylorPoly(a), h)]
    outcomes = []
    for call in calls:
        try:
            out = call()
        except (ArithmeticError, TypeError, ValueError) as exc:
            outcomes.append(type(exc))
            continue
        outcomes.append([(type(c), getattr(c, "_mpf_", repr(c)))
                         for c in out.coeffs])
    return outcomes


@given(_loop_case())
@settings(max_examples=150, deadline=None)
def test_mixed_forms_keep_their_arithmetic(case):
    """The four series loops on polynomials of every form, with every kind
    of shift, give what the loops give on the Python scalars (the kernel
    forced to ``PythonScalars``): coefficient for coefficient, type for
    type. So the kernel picked by the arrays' form changes no result, also
    where a slot meets a float or int shift, which now takes the raw
    kernel. Where mpf meet another number, or a slot another form, both
    raise ``PrecisionError``."""
    got = _loop_outcomes(*case)
    with mock.patch.object(series, "scalar_kernel",
                           lambda array: PythonScalars):
        want = _loop_outcomes(*case)
    assert got == want


def test_antiderivative_of_a_slot_makes_no_mpf(monkeypatch):
    """``poly_antiderivative`` of a slot builds its slot from raw tuples,
    c_0 * 0 and then the quotients c_j / (j + 1), as mpf arithmetic gives
    them, bit for bit (an infinite c_0 gives a NaN constant), and never
    calls ``RawSlot.tolist``, which makes mpf."""
    ctx = MPContext(40)
    calls = []
    tolist = RawSlot.tolist
    for cs in ([1, -2, 3, 5, 0], [math.inf, 1, -2]):
        xs = [ctx.real(c) / 7 for c in cs]
        want = [(x * 0 if j < 0 else x / (j + 1))._mpf_
                for j, x in [(-1, xs[0])] + list(enumerate(xs))]
        poly = TaylorPoly(coefficient_array(xs))
        monkeypatch.setattr(RawSlot, "tolist",
                            lambda self: calls.append(1) or tolist(self))
        got = poly_antiderivative(poly).array
        monkeypatch.undo()
        assert (type(got), got.raw, calls) == (RawSlot, want, [])


def test_slot_loops_and_jets_make_no_mpf(monkeypatch):
    """On mp40 polynomials built from slots, as the recursion builds them
    (so that no ``coeffs`` is cached), the four series loops, the jet
    evaluator's build and a jet on object arrays read the raw tuples:
    ``RawSlot.tolist``, which makes mpf of them, is never called."""
    ctx = MPContext(40)
    rng = random.Random(5)

    def slot_poly(cs):
        array = coefficient_array([ctx.real(c) for c in cs])
        assert type(array) is RawSlot
        return TaylorPoly(array)

    cs = [rng.randint(-99, 99) / (j + 3) for j in range(17)]
    arc = graph_arc(["0", "0", "0.5", "0.01", "-0.01"], ctx)
    exp = extend_arc(arc, ctx.real("0.03"), n=2, K=4, D=16, ctx=ctx).phi
    grid = np.empty((2, 1), dtype=object)
    grid[:, 0] = [ctx.real(1) / 40, ctx.real(-1) / 50]
    sigma = np.empty((1, 3), dtype=object)
    sigma[0] = [ctx.real(k) / 100 for k in (1, 2, 5)]
    calls = []
    tolist = RawSlot.tolist
    monkeypatch.setattr(RawSlot, "tolist",
                        lambda self: calls.append(1) or tolist(self))
    runs = {
        "poly_reciprocal": lambda: poly_reciprocal(slot_poly([1] + cs[1:])),
        "tan": lambda: analytic_compose("tan", slot_poly([0] + cs[1:])),
        "poly_compose_inverse": lambda: poly_compose_inverse(
            slot_poly(cs), slot_poly([0, 1.25] + cs[2:])),
        "poly_shift mp40": lambda: poly_shift(slot_poly(cs),
                                              ctx.real(1) / 7),
        "poly_shift float": lambda: poly_shift(slot_poly(cs), -0.3),
    }
    for name, run in runs.items():
        run()
        assert (name, len(calls)) == (name, 0)
    evaluator = SigmaJetEvaluator(exp)
    assert len(calls) == 0
    jet = evaluator.jet(grid, sigma)
    assert len(calls) == 0
    assert jet.phi.shape == (2, 3)
    assert type(jet.phi[0, 0]) is type(ctx.real(0))
