"""Series algebra tests.

Exactness checks run over Fraction coefficients (the algebra is generic in
the scalar type, so ring identities hold exactly there); float tests pin
known coefficient tables and compare jets against finite differences.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_value
from slagext.engine import _scale_ratio
from slagext.errors import (
    CompositionDomainError,
    SeriesShapeError,
    SingularDivisionError,
)
from slagext.precision import (MPContext, finite_coefficients, horner,
                                polynomial_values)
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


_MP40 = MPContext(40)
_SCALARS = {
    "float": st.floats(width=64) | st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]),
    "mpf": st.floats(-1e6, 1e6).map(_MP40.real)
    | st.sampled_from([_MP40.real(0), _MP40.real("-1e-30")]),
    "Fraction": st.fractions(max_denominator=50),
}


@st.composite
def _op_case(draw):
    kind = draw(st.sampled_from(sorted(_SCALARS)))
    n = draw(st.integers(1, 12))
    xs, ys = (draw(st.lists(_SCALARS[kind], min_size=n, max_size=n))
              for _ in range(2))
    s = draw(_SCALARS[kind] | st.integers(-10 ** 40, 10 ** 40))
    num = math.factorial(draw(st.integers(0, 40)))
    return xs, ys, s, num, draw(st.integers(1, 40)), draw(st.integers(0, n - 1))


@given(_op_case())
@settings(max_examples=100, deadline=None)
def test_array_ops_equal_the_scalar_loops(case):
    """Each array-backed operation gives, element by element, the scalar
    and the type that the same operation on the Python scalars gives:
    zero signs, NaN and infinities on floats, exact mpf and Fraction
    results, and no int or float zero mixed into mpf."""
    xs, ys, s, num, den, cap = case
    a, b = poly_from(xs), poly_from(ys)
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
    got = polynomial_values(polys)(np.asarray(x))
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
    before = values(np.asarray(x)).tolist()
    dps = mpmath.mp.dps
    try:
        mpmath.mp.dps = 15
        after = values(np.asarray(x)).tolist()
        on_float = values(np.asarray(0.125)).tolist()
    finally:
        mpmath.mp.dps = dps
    assert [v._mpf_ for v in after] == [v._mpf_ for v in before]
    assert all(v.context is x.context for v in before + after + on_float)
    # a float t enters exactly, as it does in Horner's rule
    assert on_float == values(np.asarray(ctx.real(0.125))).tolist()


def test_values_on_arrays_are_the_scalar_values():
    ctx = MPContext(30)
    rng = random.Random(4)
    polys = [tuple(ctx.real(rng.uniform(-1, 1)) for _ in range(m))
             for m in (1, 6, 12)]
    floats = [tuple(float(c) for c in cs) for cs in polys]
    ts = np.array([[-0.3], [0.0], [0.7]])
    for ps in (polys, floats):
        values = polynomial_values(ps)
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
