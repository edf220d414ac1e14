"""One precision per computation: a number enters an mp computation once,
at its entry point, by ``precision``'s rule. Python floats and ints enter
exactly (sigma * sigma of them is still taken in their own type); any other
number, here an mpf of another context, is rounded once to the nearest mpf
of the computation's context. So every result belongs to that context and
equals the result on inputs first converted with ``ctx.real``.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from slagext.arcs import graph_arc
from slagext.engine import (ReducedChartMap, extend_arc, pde_lhs_value,
                            pde_residual)
from slagext.precision import FLOAT64, context_named, polynomial_values
from slagext.series import SigmaExpansion, poly_derivative

_CTX = context_named("mp30")
_MP = _CTX.real(0).context
_CHART = extend_arc(graph_arc(["0", "0", "0.5", "0.01", "-0.01"], _CTX),
                    _CTX.real("0.03"), n=3, K=3, D=12, ctx=_CTX,
                    with_radius=False)
_MAP = ReducedChartMap(_CHART, _CTX)
_TERMS = list(_CHART.phi.terms)
_FIRSTS = [poly_derivative(f) for f in _TERMS]
_VALUES = polynomial_values([p.array for p in _TERMS + _FIRSTS] + [
    poly_derivative(f).array for f in _FIRSTS])
_KINDS = ("float64", "int", "mp20", "mp30", "mp40", "mp50")


def _numbers(kind: str):
    """Numbers of one kind: floats, small ints, or mpf at full precision
    of an mp context."""
    if kind == "float64":
        return st.floats(-0.3, 0.3)
    if kind == "int":
        return st.integers(-1, 1)
    ctx = context_named(kind)
    return st.floats(-0.3, 0.3).map(lambda x: ctx.real(x) / 3)


@st.composite
def _operand(draw, shape):
    """A number or a numpy array of the given shape (float64, int64 or
    object), of one kind drawn from ``_KINDS``."""
    kind = draw(st.sampled_from(_KINDS))
    if shape is None:
        return draw(_numbers(kind))
    xs = draw(st.lists(_numbers(kind), min_size=math.prod(shape),
                       max_size=math.prod(shape)))
    dtype = {"float64": float, "int": np.int64}.get(kind, object)
    return np.array(xs, dtype=dtype).reshape(shape)


def _converted(x):
    """x with every mpf converted with ``ctx.real``; floats and ints as
    they are."""
    if isinstance(x, np.ndarray):
        return x if x.dtype != object else np.array(
            [_converted(v) for v in x.ravel().tolist()],
            dtype=object).reshape(x.shape)
    return _CTX.real(x) if hasattr(x, "_mpf_") else x


def _bits(xs) -> list:
    """Type and raw tuples of every scalar: the bits, and the context."""
    return [(type(x), getattr(x, "_mpf_", None) or getattr(x, "_mpc_", x))
            for x in np.ravel(np.asarray(xs, dtype=object)).tolist()]


def _of_the_context(xs) -> bool:
    """Whether every mpf or mpc among xs belongs to the chart's context."""
    return all(x.context is _MP
               for x in np.ravel(np.asarray(xs, dtype=object))
               if hasattr(x, "context"))


def _jet_by_mpf(t, sigma) -> tuple:
    """The seven jet fields at one point by mpf arithmetic, in the raw
    kernel's order, for t and sigma each a float, an int or an mpf of the
    chart's context: f_k, f_k' and f_k'' at t, each over its factorial,
    then Horner in sigma * sigma from t * 0."""
    m = len(_TERMS)
    vals = [_MP.make_mpf(row[0]) for row in _VALUES([_MP.mpf(t)._mpf_])]
    f, fp, fpp = vals[:m], vals[m:2 * m], vals[2 * m:]
    fact = math.factorial
    s2, acc = sigma * sigma, [_MP.mpf(t) * 0] * 6
    for k in range(m - 1, 0, -1):
        terms = (f[k] / fact(2 * k), fp[k] / fact(2 * k),
                 fpp[k] / fact(2 * k), f[k] / fact(2 * k - 1),
                 f[k] / fact(2 * k - 2), fp[k] / fact(2 * k - 1))
        acc = [a * s2 + c for a, c in zip(acc, terms)]
    phi, phi_t, phi_tt = (a * s2 + c / 1
                          for a, c in zip(acc, (f[0], fp[0], fpp[0])))
    q, phi_ss, phi_st = acc[3:]
    return phi, phi_t, q * sigma, phi_tt, phi_st * sigma, phi_ss, q


@st.composite
def _entry_case(draw):
    """An entry point and its inputs: (t, sigma) of the jet, the residual
    grid or the chart map, or the arc's context, its cubic and quartic
    coefficients and s0 of an extension."""
    entry = draw(st.sampled_from(["jet", "pde_residual", "point",
                                  "extend_arc"]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if entry == "extend_arc":
        kind = draw(st.sampled_from(("float64",) + _KINDS[2:]))
        tail = draw(st.lists(_numbers(kind), min_size=2, max_size=2))
        return entry, (kind, tail), draw(_operand(None))
    if entry == "jet":  # a t column against a sigma row, or scalars
        shapes = draw(st.sampled_from([(None, None), ((n, 1), None),
                                       (None, (1, m)), ((n, 1), (1, m))]))
    elif entry == "point":  # arrays of one shape, or scalars
        shapes = draw(st.sampled_from([(None, None), ((n,), (n,))]))
    else:
        shapes = ((n,), (m,))
    return (entry,) + tuple(draw(_operand(shape)) for shape in shapes)


def _outcome(entry, t, sigma) -> list:
    """What the entry point returns, as a list of scalars or arrays."""
    if entry == "jet":
        return list(vars(_CHART.phi.jet_evaluator.jet(t, sigma)).values())
    if entry == "pde_residual":  # and the left side at the first point
        return [pde_residual(_CHART.phi, list(t), list(sigma)).max_pde,
                pde_lhs_value(_CHART.phi, t.tolist()[0], sigma.tolist()[0])]
    if entry == "point":
        return list(_MAP.point(t, sigma))
    kind, tail = t
    arc_ctx = FLOAT64 if kind == "float64" else context_named(kind)
    chart = extend_arc(graph_arc([0, 0, 0.5] + tail, arc_ctx), sigma, n=2,
                       K=2, D=8, ctx=_CTX, with_radius=False)
    return [f.coeffs for f in chart.phi.terms] + [chart.frame.a,
                                                  chart.frame.theta]


@given(_entry_case())
# a tenth of the profile's examples, and at least the default 100: 2,000
# in the deep CI run (tests/conftest.py)
@settings(deadline=None,
          max_examples=max(100, settings.default.max_examples // 10))
def test_numbers_enter_an_mp_chart_once(case):
    """At the jet, the residual grid (and the PDE left side at a point),
    the chart map and the arc data of an extension, float64, int, mp20, mp30, mp40 or mp50 numbers (scalars or
    arrays) give the result of the same call on inputs converted first
    with ``ctx.real`` (floats and ints kept), and every mpf in it belongs
    to the chart's context. Floats and ints enter exactly: the jet equals
    mpf arithmetic on them, bit for bit, sigma * sigma taken in their own
    type."""
    entry, t, sigma = case
    if entry == "extend_arc":
        kind, tail = t
        converted = (kind, tail) if kind == "float64" else (
            _CTX.name, [_CTX.real(c) for c in tail])
    else:
        converted = _converted(t)
    got = _outcome(entry, t, sigma)
    assert ([_bits(x) for x in got]
            == [_bits(x) for x in _outcome(entry, converted,
                                           _converted(sigma))])
    assert all(map(_of_the_context, got))
    if entry == "jet":
        T, S = np.broadcast_arrays(np.asarray(converted, dtype=object),
                                   np.asarray(_converted(sigma),
                                              dtype=object))
        for idx in np.ndindex(T.shape):
            fields = [np.asarray(x, dtype=object)[idx] for x in got]
            assert _bits(fields) == _bits(_jet_by_mpf(T[idx], S[idx]))


_T_POOL = (_CTX.real("0.03"), _CTX.real(-1) / 7, 0.0, 0.25,
           context_named("mp20").real(1) / 3, _CTX.real("nan"), math.inf,
           -math.inf)
_SIGMA_POOL = (_CTX.real("0.05"), _CTX.real(1) / 30, 0.1, 0,
               context_named("mp40").real(1) / 9)


@st.composite
def _t_stage_calls(draw):
    """A sequence of jets (scalar, a t array against a scalar sigma, a t
    column against a sigma row) and residual grids, each t grid one of two
    drawn from a small pool (NaN and infinities included), so that grids
    repeat while sigma varies."""
    grids = draw(st.lists(st.lists(st.sampled_from(_T_POOL), min_size=1,
                                   max_size=3), min_size=2, max_size=2))
    return [(draw(st.sampled_from(["scalar", "flat", "column", "residual"])),
             draw(st.sampled_from(grids)),
             draw(st.lists(st.sampled_from(_SIGMA_POOL), min_size=1,
                           max_size=2)))
            for _ in range(draw(st.integers(1, 6)))]


def _t_stage_outcome(exp, call) -> list:
    """A call of ``_t_stage_calls`` on the expansion, as bits."""
    kind, ts, sigmas = call
    if kind == "residual":
        report = pde_residual(exp, ts, sigmas)
        return [repr(report.max_pde), report.samples]
    t, s = {"scalar": (ts[0], sigmas[0]),
            "flat": (np.array(ts, dtype=object), sigmas[0]),
            "column": (np.array(ts, dtype=object)[:, None],
                       np.array(sigmas, dtype=object)[None, :])}[kind]
    return [_bits(v) for v in vars(exp.jet_evaluator.jet(t, s)).values()]


@given(_t_stage_calls())
# a tenth of the profile's examples, and at least the default 100: 2,000
# in the deep CI run (tests/conftest.py)
@settings(deadline=None,
          max_examples=max(100, settings.default.max_examples // 10))
def test_kept_t_stage_gives_a_fresh_evaluators_bits(calls):
    """Jets and residual grids in turn on one mp30 chart's evaluator, which
    keeps the t-stage of its last jet, equal those of a fresh evaluator
    for every call, bit for bit."""
    kept = SigmaExpansion(n=_CHART.n, terms=tuple(_TERMS))
    for call in calls:
        fresh = SigmaExpansion(n=_CHART.n, terms=tuple(_TERMS))
        assert _t_stage_outcome(kept, call) == _t_stage_outcome(fresh, call)
