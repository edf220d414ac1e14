"""Array evaluation equals the per-point code it replaces.

``SigmaJetEvaluator.jet`` takes a t column against a sigma row (a tensor
grid) or arrays of one shape, and ``pde_residual`` evaluates its whole grid
in one jet call. ``ReducedChartMap.point`` and ``chart_point`` take
(t, sigma) arrays,
``chart_point`` also a stack of sphere directions, and the mesh export,
the cloud export, the momentum check, the unit-circle oracle and the
branch-separation oracle evaluate whole grids with them.
Each element must equal the scalar call bit for bit, zero signs included,
so that exported files stay byte-identical. The per-point reference loops
below are the code the array calls replaced.
"""
from __future__ import annotations

import dataclasses
import hashlib
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slagext import oracles
from slagext.ambient import (
    AmbientPoint,
    chart_point,
    momentum_so_n,
    phi_map,
    sphere_points,
)
from slagext.arcs import graph_arc, unit_circle_arc
from slagext.chartio import _grid, embedded_cloud_text, reduced_mesh_text
from slagext.engine import (
    ReducedChartMap,
    _pde_lhs,
    extend_arc,
    pde_lhs_value,
    pde_residual,
)
from slagext.oracles import (
    branch_separation,
    chart_residual_report,
    unit_circle_residual,
)
from slagext.precision import (
    MPContext,
    abs_squared,
    complex_array,
    complex_power,
    horner,
    polynomial_values,
)
from slagext.series import (SigmaExpansion, SigmaJetEvaluator, TaylorPoly,
                            poly_from)


def _same(a: complex, b: complex) -> bool:
    """Equal values and equal signs of every zero part."""
    return all(x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
               for x, y in ((a.real, b.real), (a.imag, b.imag)))


def _chart(n, circle, s0, tail, branch):
    arc = (unit_circle_arc() if circle
           else graph_arc(["0", "0"] + [repr(c) for c in tail]))
    return extend_arc(arc, s0, n=n, K=4, D=16, branch=branch % n,
                      with_radius=False)


finite = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 4),
    circle=st.booleans(),
    s0=st.floats(-0.3, 0.3, **finite),
    tail=st.lists(st.floats(-1.0, 1.0, **finite), min_size=1, max_size=4),
    branch=st.integers(0, 3),
    ts=st.lists(st.floats(-0.2, 0.2, **finite), min_size=1, max_size=5),
    sigmas=st.lists(st.floats(-0.1, 0.1, **finite), min_size=1, max_size=4),
)
def test_array_point_equals_scalar_calls(n, circle, s0, tail, branch, ts,
                                         sigmas):
    chart = _chart(n, circle, s0, tail, branch)
    T, S = np.meshgrid([0.0, -0.0] + ts, [0.0, -0.0] + sigmas,
                       indexing="ij")
    w, z = chart.reduced_map.point(T, S)
    assert w.shape == z.shape == T.shape
    wz, jac = chart.reduced_map.point_and_jacobian(T, S)
    for idx in np.ndindex(T.shape):
        ws, zs = chart.reduced_map.point(float(T[idx]), float(S[idx]))
        assert _same(complex(w[idx]), ws) and _same(complex(z[idx]), zs)
        one = chart.reduced_map.point_and_jacobian(float(T[idx]),
                                                    float(S[idx]))
        assert one[0] == (ws, zs)
        assert all(_same(complex(a[idx]), b)
                   for a, b in zip(wz + jac, one[0] + one[1]))
    u = sphere_points(n, 7)[-1]
    p = chart_point(chart, T, S, u)
    assert all(c.shape == T.shape and c.dtype == np.complex128
               for c in p.z)
    for idx in np.ndindex(T.shape):
        q = chart_point(chart, float(T[idx]), float(S[idx]), u)
        assert all(_same(complex(a[idx]), b) for a, b in zip(p.z, q.z))
    # a stack of directions adds a trailing axis, one element per direction
    dirs = sphere_points(n, 7)
    stacked = chart_point(chart, T, S, dirs)
    one = chart_point(chart, 0.05, -0.0, dirs)
    assert all(c.shape == T.shape + (7,) for c in stacked.z)
    assert all(c.shape == (7,) for c in one.z)
    for d, v in enumerate(dirs):
        q = chart_point(chart, T, S, v)
        assert all(_same(complex(a[idx + (d,)]), complex(b[idx]))
                   for a, b in zip(stacked.z, q.z)
                   for idx in np.ndindex(T.shape))
        q = chart_point(chart, 0.05, -0.0, v)
        assert all(_same(complex(a[d]), b) for a, b in zip(one.z, q.z))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 4),
    circle=st.booleans(),
    K=st.integers(1, 12),
    s0=st.floats(-0.3, 0.3, **finite),
    tail=st.lists(st.floats(-1.0, 1.0, **finite), min_size=1, max_size=4),
    ts=st.lists(st.floats(-0.2, 0.2, **finite), min_size=1, max_size=5),
    sigmas=st.lists(st.floats(-0.1, 0.1, **finite), min_size=1, max_size=4),
)
def test_grid_jet_equals_scalar_jets(n, circle, K, s0, tail, ts, sigmas):
    # K up to 12 puts (2k)! past 2^53, where the divisors round
    arc = (unit_circle_arc() if circle
           else graph_arc(["0", "0"] + [repr(c) for c in tail]))
    chart = extend_arc(arc, s0, n=n, K=K, D=2 * K + 6, with_radius=False)
    ev = SigmaJetEvaluator(chart.phi)
    tv, sv = [0.0, -0.0] + ts, [0.0, -0.0] + sigmas
    T, S = np.array(tv)[:, None], np.array(sv)[None, :]
    grid = ev.jet(T, S)
    fields = [f.name for f in dataclasses.fields(grid)]
    assert all(getattr(grid, f).shape == (len(tv), len(sv)) for f in fields)
    lhs = _pde_lhs(n, S, grid.phi_sigma, grid.phi_tt, grid.phi_sigmasigma,
                   grid.phi_sigmat)
    for i, t in enumerate(tv):
        for j, s in enumerate(sv):
            one = ev.jet(t, s)
            assert all(_same(complex(getattr(grid, f)[i, j]),
                             complex(getattr(one, f))) for f in fields)
            assert _same(complex(lhs[i, j]),
                         complex(pde_lhs_value(chart.phi, t, s)))
    # arrays of one shape evaluate element by element
    flat = ev.jet(np.broadcast_to(T, lhs.shape).ravel(),
                  np.broadcast_to(S, lhs.shape).ravel())
    assert all(np.array_equal(getattr(flat, f),
                              getattr(grid, f).ravel()) for f in fields)
    want = max(abs(pde_lhs_value(chart.phi, t, s)) for t in tv for s in sv)
    rep = pde_residual(chart.phi, tv, sv)
    assert rep.max_pde == want and rep.samples == len(tv) * len(sv)


def _same_float(a: float, b: float) -> bool:
    """Both NaN, or equal values with equal signs of zero."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return _same(complex(a, 0.0), complex(b, 0.0))


def _same_parts(a: complex, b: complex) -> bool:
    return _same_float(a.real, b.real) and _same_float(a.imag, b.imag)


# coefficients with exact zeros of both signs, which make the zero signs of
# the values depend on the order of every operation
coefficient = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]),
                        st.floats(-2.0, 2.0, **finite))


@settings(max_examples=60, deadline=None)
@given(
    polys=st.lists(st.lists(st.one_of(coefficient,
                                      st.sampled_from([math.inf, math.nan])),
                            min_size=1, max_size=9),
                   min_size=1, max_size=7),
    ts=st.lists(st.one_of(st.floats(-3.0, 3.0, **finite),
                          st.sampled_from([0.0, -0.0, math.inf, -math.inf,
                                           math.nan])),
                min_size=1, max_size=6),
)
def test_stacked_float_values_equal_scalar_horner(polys, ts):
    # polynomials of unequal lengths, evaluated at once on a float64 array,
    # are each the Horner value on Python floats, whatever t and the top
    # coefficient
    values = polynomial_values([tuple(cs) for cs in polys])
    T = np.array(ts).reshape(-1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        got = values(T)
    assert got.shape == (len(polys),) + T.shape
    for i, t in enumerate(ts):
        want = [horner(cs, t) for cs in polys]
        assert all(_same_float(float(got[r, i, 0]), want[r])
                   for r in range(len(polys)))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 4),
    K=st.integers(1, 7),
    cap=st.integers(2, 8),
    data=st.data(),
    ts=st.lists(st.floats(-0.5, 0.5, **finite), min_size=1, max_size=4),
    sigmas=st.lists(st.floats(-0.2, 0.2, **finite), min_size=1, max_size=4),
)
def test_stacked_float_jet_equals_scalar_jets(n, K, cap, data, ts, sigmas):
    # f_k, f_k' and f_k'' have unequal lengths; +-0.0 in t and sigma
    terms = [data.draw(st.lists(coefficient, min_size=cap + 1,
                                max_size=cap + 1)) for _ in range(K + 1)]
    terms[0][:3] = [0.0, 0.0, 0.0]
    terms[1][0] = 0.0
    ev = SigmaJetEvaluator(SigmaExpansion(
        n=n, terms=tuple(TaylorPoly(tuple(cs)) for cs in terms)))
    tv, sv = [0.0, -0.0] + ts, [0.0, -0.0] + sigmas
    T, S = np.array(tv)[:, None], np.array(sv)[None, :]
    grid = ev.jet(T, S)
    fields = [f.name for f in dataclasses.fields(grid)]
    for i, t in enumerate(tv):
        for j, s in enumerate(sv):
            one = ev.jet(t, s)
            assert all(_same(complex(getattr(grid, f)[i, j]),
                             complex(getattr(one, f))) for f in fields)
    # arrays of one shape, and a t row against a sigma column
    flat = ev.jet(np.broadcast_to(T, (len(tv), len(sv))).ravel(),
                  np.broadcast_to(S, (len(tv), len(sv))).ravel())
    swapped = ev.jet(np.array(tv)[None, :], np.array(sv)[:, None])
    for f in fields:
        assert np.array_equal(getattr(flat, f), getattr(grid, f).ravel())
        assert np.array_equal(np.signbit(getattr(flat, f)),
                              np.signbit(getattr(grid, f).ravel()))
        assert np.array_equal(getattr(swapped, f), getattr(grid, f).T)


def _jet_digest(*jets) -> str:
    """SHA-256 of the reprs of every field of the jets: arrays by dtype,
    shape and the reprs of their elements, scalars by their own repr, which
    tells a Python float from a numpy one."""
    text = "\n".join(
        f"{v.dtype}{v.shape}{v.tolist()!r}" if isinstance(v, np.ndarray)
        else repr(v)
        for jet in jets for v in dataclasses.astuple(jet))
    return hashlib.sha256(text.encode()).hexdigest()


def test_jet_output_is_frozen():
    """Every jet field, bit for bit and with its type, as the per-point
    loop and the stacked float kernel made them: a float64 unit-circle
    chart on a t column against a sigma row (zeros of both signs), at one
    scalar point and at two whose fields overflow to NaN and to infinity
    without a numpy warning, as on Python floats; an mp40 chart on a 7 x 4
    grid, against a float sigma row and at one scalar point."""
    ev = SigmaJetEvaluator(extend_arc(unit_circle_arc(), 0.2, n=2, K=10,
                                      D=40).phi)
    T = np.array([0.0, -0.0, -0.31, -0.07, 0.11, 0.26])[:, None]
    S = np.array([0.0, -0.0, 0.013, -0.04, 0.09])[None, :]
    assert _jet_digest(ev.jet(T, S), ev.jet(0.13, -0.07),
                       ev.jet(1e200, 0.5), ev.jet(0.1, 1e30)) == (
        "d16239590585cb0eb3947e23e13359350a9bce1da6afdeaf66c3ac7a876fa51b")
    ctx = MPContext(40)
    arc = graph_arc(["0", "0", "0.5", "0.01", "-0.01"], ctx)
    ev = SigmaJetEvaluator(extend_arc(arc, ctx.real("0.03"), n=2, K=8, D=48,
                                      ctx=ctx).phi)
    T = np.array([ctx.real(j) / 23 for j in range(-3, 4)], dtype=object)
    S = np.array([ctx.real(0), ctx.real("0.025"), ctx.real("-0.05"),
                  ctx.real("0.1")], dtype=object)
    assert _jet_digest(ev.jet(T[:, None], S[None, :]),
                       ev.jet(T[:, None], np.array([0.0, -0.0, 0.05])),
                       ev.jet(ctx.real("0.07"), ctx.real("0.03"))) == (
        "c3a89425118a577aa4d893c8567222850b75225f46405a715953be591ff910d8")


def test_evaluator_build_is_frozen_at_caps_0_and_1():
    """The values of f_k, f_k' and f_k'' and the jet of expansions at cap 0
    and cap 1, bit for bit as the build that differentiated each f_k by
    ``poly_derivative`` made them: a constant's derivative is c*0, which
    is -0.0 for a negative c and NaN for an infinity or NaN, and f_k'' at
    cap 1 is (1*c_1)*0."""
    cases = [
        [(0.0,), (-0.0,), (-1.5,), (math.inf,), (-math.inf,), (2.0,),
         (math.nan,)],
        [(0.0, -0.0), (-0.0, -2.5), (-0.0, math.inf), (3.0, -math.inf),
         (-0.25, 0.5), (math.nan, -1.0)],
    ]
    T = np.array([0.0, -0.0, 0.5, -2.0, math.inf, math.nan])
    h = hashlib.sha256()
    for rows in cases:
        ev = SigmaJetEvaluator(SigmaExpansion(
            n=3, terms=tuple(map(TaylorPoly, rows))))
        with np.errstate(over="ignore", invalid="ignore"):
            h.update(ev._values(T).tobytes())
            jet = ev.jet(T[:, None], np.array([0.0, -0.0, 0.1])[None, :])
        for v in dataclasses.astuple(jet):
            h.update(v.tobytes())
    assert h.hexdigest() == (
        "5e827aa14b585746ec136135fea772c9911fe0232e929c70b7647a24eda0b56c")


def test_stacked_values_of_blocks_in_any_order():
    """Rows of five distinct lengths, given as 1-D arrays and as 2-D blocks
    of one length, shortest not last, come back in the order of their
    rows, each exactly the scalar Horner value: Fraction coefficients at
    Fraction points, and float64 ones at float64 points (zero signs
    included) and at Fraction points."""
    lengths = (3, 3, 7, 5, 5, 1, 2)
    rows = [[Fraction(j + 1, k + 2) * (-1) ** (j + k) for j in range(m)]
            for k, m in enumerate(lengths)]

    def blocks(rs, dtype):
        return [np.array(rs[0:2], dtype=dtype), np.array(rs[2], dtype=dtype),
                np.array(rs[3:5], dtype=dtype), np.array(rs[5], dtype=dtype),
                np.array(rs[6], dtype=dtype)]

    ts = [Fraction(1, 3), Fraction(-5, 2), Fraction(0)]
    got = polynomial_values(blocks(rows, object))(np.array(ts, dtype=object))
    assert got.shape == (len(rows), len(ts))
    assert [[got[r, i] for i in range(len(ts))] for r in range(len(rows))] \
        == [[horner(cs, t) for t in ts] for cs in rows]
    floats = [[float(c) for c in cs] for cs in rows]
    values = polynomial_values(blocks(floats, float))
    tf = [0.0, -0.0, 0.75, -1.25]
    got = values(np.array(tf))
    assert got.dtype == np.float64 and got.shape == (len(rows), len(tf))
    assert all(_same_float(float(got[r, i]), horner(cs, t))
               for r, cs in enumerate(floats) for i, t in enumerate(tf))
    got = values(np.array(ts, dtype=object))
    assert got.dtype == object
    assert [[got[r, i] for i in range(len(ts))] for r in range(len(rows))] \
        == [[horner(cs, t) for t in ts] for cs in floats]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.one_of(coefficient, st.floats(-1e200, 1e200)),
                          st.one_of(coefficient, st.floats(-1e200, 1e200))),
                min_size=1, max_size=8),
       st.integers(1, 6))
def test_abs_squared_and_complex_power_equal_python(pairs, k):
    # |z| ** 2 of the first pair is not |z| * |z|, which numpy's ** gives
    pairs = [(0.0476727312116796, 0.6337011773719937)] + pairs
    z = complex_array(*(np.array(v) for v in zip(*pairs)))
    with np.errstate(over="ignore", invalid="ignore"):
        sq = abs_squared(z)
        pw = complex_power(z, k)
    for i, (re, im) in enumerate(pairs):
        c = complex(re, im)
        try:
            want = abs(c) ** 2
        except OverflowError:  # Python's float ** refuses an infinity
            want = math.inf
        else:
            assert _same_float(abs_squared(c), want)
        assert _same_float(float(sq[i]), want)
        p = complex_power(c, k)
        assert _same_parts(complex(pw[i]), p)
        try:
            assert _same_parts(p, c ** k)
        except OverflowError:  # CPython refuses an infinite power
            assert math.isinf(p.real) or math.isinf(p.imag)


def test_phi_map_on_arrays_matches_scalars():
    rng = np.random.default_rng(5)
    w = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    z[:4] = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    u = sphere_points(3, 9)[-1]
    p = phi_map(w, z, u)
    for i in range(50):
        q = phi_map(complex(w[i]), complex(z[i]), u)
        assert all(_same(complex(a[i]), b) for a, b in zip(p.z, q.z))


def test_momentum_of_array_point_stacks_the_scalar_matrices():
    ch = _chart(3, False, 0.1, [0.4, -0.2], 1)
    T, S = np.meshgrid([-0.05, 0.0, 0.05], [0.0, 0.02], indexing="ij")
    u = sphere_points(3, 5)[-1]
    mu = momentum_so_n(chart_point(ch, T, S, u))
    assert mu.shape == (3, 3) + T.shape
    for idx in np.ndindex(T.shape):
        one = momentum_so_n(chart_point(ch, float(T[idx]), float(S[idx]), u))
        assert np.array_equal(mu[(slice(None), slice(None)) + idx], one)


# ---------------------------------------------------------------------------
# the per-point loops the array calls replaced


def _reduced_mesh_per_point(charts, resolution, sigma_max):
    w = float(2 * sigma_max)
    lines = ["# reduced chart mesh: Re w, Im w, Re zeta / Im zeta"]
    faces = []
    base = 1
    for chart in charts:
        for t in _grid(-w, w, resolution):
            for s in _grid(0.0, float(sigma_max), resolution):
                wv, zv = chart.reduced_map.point(t, s)
                lines.append(
                    "v "
                    f"{wv.real:.17g} {wv.imag:.17g} "
                    f"{zv.real:.17g} {zv.imag:.17g}"
                )
        for i in range(resolution - 1):
            for j in range(resolution - 1):
                v00 = base + i * resolution + j
                v01 = v00 + 1
                v10 = v00 + resolution
                v11 = v10 + 1
                faces.append(f"f {v00} {v10} {v11} {v01}")
        base += resolution * resolution
    return "\n".join(lines + faces) + "\n"


def _cloud_text_per_point(charts, resolution, sigma_max, directions):
    n = charts[0].n
    w = float(2 * sigma_max)
    header = []
    for k in range(n + 1):
        header += [f"x{k}", f"y{k}"]
    rows = [header]
    dirs = sphere_points(n, directions)
    for chart in charts:
        for t in _grid(-w, w, resolution):
            for s in _grid(0.0, float(sigma_max), resolution):
                for u in dirs:
                    p = chart_point(chart, t, s, u)
                    row = []
                    for z in p.z:
                        row += [f"{z.real:.17g}", f"{z.imag:.17g}"]
                    rows.append(row)
    return "".join(",".join(row) + "\n" for row in rows)


def _momentum_per_point(chart, sigma_max, nt=9, ns=7):
    ts = [(-0.1 + 0.2 * i / (nt - 1)) for i in range(nt)]
    sig = [sigma_max * (j + 1) / ns for j in range(ns)]
    momentum = 0.0
    for t in ts:
        for s in sig:
            w, zeta = chart.reduced_map.point(t, s)
            for u in sphere_points(chart.n, 6):
                p = phi_map(w, zeta, u)
                momentum = max(momentum,
                               float(np.max(np.abs(momentum_so_n(p)))))
    return momentum


def _locus_per_point(n, chart, sigma_max, t_halfwidth, samples):
    dirs = sphere_points(n, 8)
    nt = max(2, int(math.sqrt(samples / 2)))
    ns = max(2, (samples + nt - 1) // nt)
    worst = 0.0
    for i in range(nt):
        t = -t_halfwidth + 2 * t_halfwidth * i / (nt - 1)
        for j in range(ns):
            s = -sigma_max + 2 * sigma_max * j / (ns - 1)
            u = dirs[(i * ns + j) % len(dirs)]
            p = chart_point(chart, t, s, u)
            z0 = p.z[0]
            kmax = max(range(n), key=lambda k: abs(u[k]))
            zeta = p.z[1 + kmax] / u[kmax]
            f1 = sum(abs(zk) ** 2 for zk in p.z[1:]) - n * (abs(z0) ** 2 - 1.0)
            f2 = (z0 * zeta ** n).real
            worst = max(worst, abs(f1), abs(f2))
    return worst, nt * ns


CHARTS = [
    (2, False, 0.0, [0.5], 0),
    (3, False, 0.17, [0.3, -0.6, 0.2], 2),
    (4, False, -0.2, [-0.8, 0.1], 1),
    (2, True, 1.3, [], 1),
    (4, True, 5.0, [], 3),
]


@pytest.mark.parametrize("spec", CHARTS)
def test_exports_equal_the_per_point_loops(spec):
    n = spec[0]
    charts = [_chart(*spec), _chart(n, False, 0.05, [0.2, 0.7], 0)]
    assert (reduced_mesh_text(charts, 7, 0.05)
            == _reduced_mesh_per_point(charts, 7, 0.05))
    # sigma = 0 rows carry -0 parts, so the zero signs are compared too
    for res, dirs in ((8, 6), (5, 9)):
        assert (embedded_cloud_text(charts, res, 0.1, directions=dirs)
                == _cloud_text_per_point(charts, res, 0.1, dirs))


# SHA-256 of the mesh text and of the two cloud texts of
# test_exports_equal_the_per_point_loops, as the one-%.17g-per-number
# formatting wrote them
EXPORT_DIGESTS = [
    ("adc64be2a1b2d368693e718ee8cd30a37ae639fa9d8b672c0045466ff66ae534",
     "4ffed449bebfb27e6e9617306fb87fe01840e6dd5f3eb40c7f1becc815686167"),
    ("35cd65d586154d3f99347e32681fbbd290f83508e57a6cc4fa2fe63ec4444465",
     "059b4644d4d3b1c59bff4b1e11952543e66b8a8d2e55aabbea2d82f89ce9d76f"),
    ("6f7dfe407d9c0744e2d6eb28beac68e6912958eb3fa1dcc2fbfaa9fb33fd0c1c",
     "a278a9050ab64b9f24cfacb28e3d998f986e4fb3722bb16359acc3f7b4a6b674"),
    ("b5f0d29049f4b402ad81b8751fa6bbd4cb92fcb2b7f0a086c08b307b450acae3",
     "2072791f7e050367a29f47d1b9703aa33614244f1a85912e2a91e875141e206e"),
    ("1182298139fecf99d57ce9a9633c76d0ce52776d9bf245e769467d2aed72220f",
     "9c0184a691f6f8662dffda087781dfed9297e415caebff7d77ef28a9d13a21bf"),
]


def _export_digests(spec):
    n = spec[0]
    charts = [_chart(*spec), _chart(n, False, 0.05, [0.2, 0.7], 0)]
    cloud = hashlib.sha256()
    for res, dirs in ((8, 6), (5, 9)):
        cloud.update(embedded_cloud_text(charts, res, 0.1,
                                         directions=dirs).encode())
    mesh = reduced_mesh_text(charts, 7, 0.05).encode()
    return hashlib.sha256(mesh).hexdigest(), cloud.hexdigest()


@pytest.mark.parametrize("spec, digests", zip(CHARTS, EXPORT_DIGESTS))
def test_export_text_is_frozen(spec, digests):
    assert _export_digests(spec) == digests


@pytest.mark.parametrize("spec", CHARTS)
def test_momentum_equals_the_per_point_loop(spec):
    chart = _chart(*spec)
    rep = chart_residual_report(chart, 0.1)
    assert rep["max_momentum"] == _momentum_per_point(chart, 0.1)


@pytest.mark.parametrize("n, s0, samples", [(2, 0.0, 500), (3, 2.0, 120),
                                            (4, 4.1, 77)])
def test_unit_circle_locus_agrees_with_the_per_point_loop(n, s0, samples):
    chart = _chart(n, True, s0, [], 0)
    r = unit_circle_residual(n, chart, 0.05, t_halfwidth=0.05,
                             samples=samples)
    worst, used = _locus_per_point(n, chart, 0.05, 0.05, samples)
    assert r.samples == used
    # numpy's abs, ** and complex multiply round some last bits
    # differently from Python's
    assert abs(r.max_residual - worst) <= 1e-14


@pytest.mark.parametrize("n, s0, samples, want", [
    (2, 0.0, 500, "6.106112347823887e-12"),
    (3, 2.0, 120, "9.159949425550343e-12"),
    (4, 4.1, 77, "1.2212453270876722e-11"),
])
def test_unit_circle_locus_is_frozen(n, s0, samples, want):
    """The worst residual, bit for bit, as one array call per direction
    computed it."""
    chart = _chart(n, True, s0, [], 0)
    r = unit_circle_residual(n, chart, 0.05, t_halfwidth=0.05,
                             samples=samples)
    assert repr(r.max_residual) == want


def test_unit_circle_locus_lifts_each_sample_in_its_direction_only():
    """At n = 6 and 20,000 samples, on the chart ``slagext oracle circle``
    builds at its defaults, the circle oracle's tracemalloc peak is at most
    5 MB: each sample is lifted in its own direction only, on a t column
    against a sigma row (a lift of every sample to all 8 directions peaks
    at 21 MB)."""
    chart = extend_arc(unit_circle_arc(), 0.0, n=6, K=3, D=22,
                       with_radius=False)
    unit_circle_residual(6, chart, 0.05, samples=100)  # builds the map
    tracemalloc.start()
    try:
        r = unit_circle_residual(6, chart, 0.05, samples=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.passed and r.samples == 20000
    assert peak <= 5e6


def test_unit_circle_locus_lifts_every_sample_at_once(monkeypatch):
    """One chart_point call for all samples and directions: two jets in
    all, the other one for the unit-circle base check."""
    chart = _chart(3, True, 2.0, [], 0)
    calls = {"chart_point": 0, "jet": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(oracles, "chart_point",
                        counted("chart_point", chart_point))
    monkeypatch.setattr(SigmaJetEvaluator, "jet",
                        counted("jet", SigmaJetEvaluator.jet))
    unit_circle_residual(3, chart, 0.05, t_halfwidth=0.05, samples=120)
    assert calls == {"chart_point": 1, "jet": 2}


def test_unit_circle_locus_fails_on_a_non_finite_chart(monkeypatch):
    chart = _chart(2, True, 0.0, [], 0)

    def poisoned(ch, t, s, u):
        p = chart_point(ch, t, s, u)
        return AmbientPoint((p.z[0] * np.nan,) + p.z[1:])

    monkeypatch.setattr(oracles, "chart_point", poisoned)
    r = unit_circle_residual(2, chart, 0.05, t_halfwidth=0.05)
    assert not r.passed


def _chart_point_per_point(chart, t, sigma, u):
    pts = [chart_point(chart, float(a), float(b), u)
           for a, b in zip(t, sigma)]
    return AmbientPoint(tuple(np.array([p.z[k] for p in pts])
                              for k in range(len(pts[0].z))))


@pytest.mark.parametrize("n", [2, 3])
def test_branch_separation_equals_per_point_clouds(monkeypatch, n):
    # a new arc object for each run, so the second solves its own charts
    batched = branch_separation(graph_arc(["0", "0", "0.5", "-0.3"]), n, K=3)
    monkeypatch.setattr(oracles, "chart_point", _chart_point_per_point)
    looped = branch_separation(graph_arc(["0", "0", "0.5", "-0.3"]), n, K=3)
    assert batched.max_residual == looped.max_residual
    assert batched.details == looped.details


def _mp_circle_lanes(ctx):
    """An mp30 unit-circle chart's map and 25 (t, sigma) lanes of the
    overlap Gauss-Newton shape: object arrays of mpf of one shape."""
    chart = extend_arc(unit_circle_arc(), 0.3, n=2, K=4, D=24,
                       with_radius=False)
    cmap = ReducedChartMap(chart, ctx)
    T = np.array([ctx.real(j - 12) / 97 for j in range(25)], dtype=object)
    S = np.array([ctx.real(j % 5) / 53 for j in range(25)], dtype=object)
    return cmap, T, S


def test_mp_jet_on_elementwise_lanes_is_frozen():
    """``point_and_jacobian`` of an mp30 chart map on 25 elementwise lanes,
    every mpc part bit for bit, as the object-array jet made it."""
    cmap, T, S = _mp_circle_lanes(MPContext(30))
    (w, z), jac = cmap.point_and_jacobian(T, S)
    text = "\n".join(repr(a.tolist()) for a in (w, z) + jac)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a44dec2303621e0cbf2cdfd7b5c91c26840e0b39cfc9ecf8c5a2bfe78428055b")


def _mp40_jet_cases() -> list:
    """(evaluator, t, sigma) of mp40 jets on every input kind: int sigma
    (scalar, an int64 array and an int past 64 bits), Python-float sigma,
    an mp30 sigma, a float64 t, NaN and infinite t or sigma, a 0-d t array
    (scalar fields), and an expansion with f_0 alone (K = 0)."""
    ctx = MPContext(40)
    arc = graph_arc(["0", "0", "0.5", "0.01", "-0.01"], ctx)
    phi = extend_arc(arc, ctx.real("0.03"), n=2, K=4, D=16, ctx=ctx).phi
    ev = SigmaJetEvaluator(phi)
    T = np.array([ctx.real(j) / 23 for j in range(-2, 3)], dtype=object)
    nan, inf = ctx.real("nan"), ctx.real("inf")
    cases = [(T, 2), (T[:, None], np.array([1, -2, 0])),
             (ctx.real("0.07"), 10 ** 30), (T, 0.05), (ctx.real("0.07"), -0.0),
             (T, MPContext(30).real(1) / 3),
             (np.array([0.1, -0.0, 0.2]), ctx.real("0.03")),
             (nan, ctx.real("0.03")), (ctx.real("0.07"), inf),
             (np.array([inf, ctx.real("0.1"), -inf], dtype=object),
              np.array([0.05, 0.2, -0.1])),
             (T, math.inf), (ctx.real("0.07"), math.nan), (inf, 0.05),
             (np.asarray(ctx.real("0.07")), 2),
             (np.asarray(ctx.real("0.07")), ctx.real("0.03")),
             (np.asarray(nan), np.asarray(ctx.real("0.03")))]
    f0_alone = SigmaJetEvaluator(SigmaExpansion(n=2, terms=phi.terms[:1]))
    return [(ev, t, s) for t, s in cases] + [
        (f0_alone, T[:, None],
         np.array([ctx.real("0.1"), ctx.real(0)])[None, :])]


def test_mp_jet_on_other_sigma_types_and_special_values_is_frozen():
    """mp40 jets on every input kind of ``_mp40_jet_cases``, every field
    bit for bit and with its type, as the raw kernel made them: the mp30
    sigma rounded into mp40 before it is squared, and at K = 0 every field
    of the grid's shape."""
    jets = [ev.jet(t, s) for ev, t, s in _mp40_jet_cases()]
    assert _jet_digest(*jets) == (
        "dbbcd094dd707ad5b303d464096253ab9c914e656f86f27327e4a6b11540a5ea")


def test_mp_jet_takes_one_path(monkeypatch):
    """An evaluator of mpf of one context runs every jet on the raw kernel,
    once per call: on every input kind of ``_mp40_jet_cases`` (K = 0
    included) and on empty grids. The object Horner, which reads the
    divisor arrays, is never entered."""
    calls = []
    raw_jet = SigmaJetEvaluator._raw_jet
    monkeypatch.setattr(SigmaJetEvaluator, "_raw_jet",
                        lambda self, t, s: calls.append(1) or raw_jet(self, t, s))
    cases = _mp40_jet_cases()
    empty = np.array([], dtype=object)
    cases += [(cases[0][0], empty, 0.05), (cases[0][0], empty[:, None],
                                             np.array([[0.1, 0.2]]))]
    for ev, t, s in cases:
        ev._divisors = None
        ev.jet(t, s)
    assert len(calls) == len(cases)


def test_mp_jet_on_an_empty_grid_gives_empty_fields():
    """An mp chart's jet on a 0-length t gives seven empty object arrays of
    the broadcast shape."""
    ctx = MPContext(40)
    arc = graph_arc(["0", "0", "0.5", "0.01", "-0.01"], ctx)
    ev = extend_arc(arc, ctx.real("0.03"), n=2, K=4, D=16, ctx=ctx,
                    with_radius=False).phi.jet_evaluator
    empty = np.array([], dtype=object)
    for t, sigma, shape in ((empty, ctx.real("0.03"), (0,)),
                            (empty, 0.05, (0,)),
                            (empty[:, None], np.array([[0.1, 0.2]]), (0, 2))):
        fields = dataclasses.astuple(ev.jet(t, sigma))
        assert len(fields) == 7
        assert all(isinstance(v, np.ndarray) and v.dtype == object
                   and v.shape == shape for v in fields)


def test_mp_jet_computes_at_the_precision_of_each_call():
    """A cached evaluator of global ``mpmath.mp`` mpf computes each jet at
    ``mpmath.mp.prec`` as it is when called, as a new evaluator does: the
    coefficients are short dyadics, so their derivatives are the same at
    either precision, and the jets' divisions and Horner steps are not."""
    def dyadics(*ms):
        return poly_from([mpmath.mpf(m) / 64 for m in ms])

    exp = SigmaExpansion(n=2, terms=[dyadics(0, 0, 0, 5, -7, 3),
                                     dyadics(0, 9, 1, -3, 11, 2),
                                     dyadics(1, -5, 7, 3, 0, 13)])
    with mpmath.workdps(20):
        T = np.array([mpmath.mpf(j) / 7 for j in range(-2, 3)], dtype=object)
        first = exp.jet_evaluator.jet(T[:, None], np.array([mpmath.e / 31]))
    with mpmath.workdps(40):
        T = np.array([mpmath.mpf(j) / 7 for j in range(-2, 3)], dtype=object)
        S = np.array([mpmath.e / 31, mpmath.pi / 37])
        later = exp.jet_evaluator.jet(T[:, None], S)
        assert _jet_digest(later) == _jet_digest(
            SigmaJetEvaluator(exp).jet(T[:, None], S))
    assert _jet_digest(later) != _jet_digest(first)


def test_kept_t_stage_is_kept_per_precision():
    """A cached evaluator of global ``mpmath.mp`` mpf keeps the t-stage of
    its last jet only for the same points at the same precision: a dyadic
    t is the same raw tuple at 20 and at 40 digits, and jetted at dps 20
    and then at dps 40 it gives a new evaluator's dps-40 jet."""
    exp = SigmaExpansion(n=2, terms=[
        poly_from([mpmath.mpf(m) / 64 for m in ms])
        for ms in ((0, 0, 0, 5, -7, 3), (0, 9, 1, -3, 11, 2),
                   (1, -5, 7, 3, 0, 13))])
    T = np.array([mpmath.mpf(3) / 8, mpmath.mpf(-5) / 16], dtype=object)
    S = np.array([0.0625, 0.125])

    def bits(ev):  # raw tuples: an mpf's repr reads the digits of mpmath.mp
        return [x._mpf_ for v in dataclasses.astuple(ev.jet(T[:, None], S))
                for x in v.ravel()]

    with mpmath.workdps(20):
        first = bits(exp.jet_evaluator)
    with mpmath.workdps(40):
        assert bits(exp.jet_evaluator) == bits(SigmaJetEvaluator(exp))
        assert bits(exp.jet_evaluator) != first


def _mp_residual_cases() -> list:
    """(expansion, t values, sigma values) of mp residual grids at mp30 and
    mp40, n = 2, 3 and 4: t grids with -0.0, NaN, +inf and -inf, each
    against sigma as floats, as ints and as mpf of another context."""
    cases = []
    for dps, other in ((30, 40), (40, 30)):
        ctx, oc = MPContext(dps), MPContext(other)
        arc = graph_arc(["0", "0", "0.5", "0.01", "-0.01"], ctx)
        ts = [ctx.real(j) / 23 for j in range(-3, 4)]
        for n in (2, 3, 4):
            phi = extend_arc(arc, ctx.real("0.03"), n=n, K=4, D=16, ctx=ctx,
                             with_radius=False).phi
            for t in (ts, ts[:2] + [-0.0], ts[:2] + [ctx.real("nan")],
                      [math.inf] + ts[:2], ts[:2] + [-math.inf]):
                for sigma in ([0.05, 0.1, -0.025], [0, 2],
                              [oc.real(1) / 30, oc.real(-1) / 7]):
                    cases.append((phi, t, sigma))
    return cases


def test_mp_residuals_and_left_sides_are_frozen():
    """``pde_residual`` of mp charts on every grid of ``_mp_residual_cases``,
    and ``pde_lhs_value`` at each of its points, bit for bit: the report,
    and each left side's type, precision and raw tuple."""
    lines = []
    for phi, t, sigma in _mp_residual_cases():
        lines.append(repr(pde_residual(phi, t, sigma)))
        for x in (pde_lhs_value(phi, a, b) for a in t for b in sigma):
            lines.append(f"{type(x).__name__}{x.context.prec}{x._mpf_}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "7f0eac7d3d4e134798fee93a93f43bbdd9b12b66c82195b845c1020004435145")


def test_mp_left_side_on_arrays_is_the_left_side_at_each_point():
    """``pde_lhs_value`` of an mp chart on a t column against a sigma row
    gives an object array of each point's scalar left side, bit for bit,
    not the 0 that numpy's ``.imag`` reads on an object array of mpc."""
    phi, t, sigma = _mp_residual_cases()[0]
    got = pde_lhs_value(phi, np.array(t, dtype=object)[:, None],
                        np.array(sigma)[None, :])
    assert got.shape == (len(t), len(sigma)) and got.dtype == object
    assert [x._mpf_ for x in got.ravel()] == [
        pde_lhs_value(phi, a, b)._mpf_ for a in t for b in sigma]


def test_mp_residuals_at_one_t_grid_evaluate_the_f_k_once():
    """Three ``pde_residual`` calls on one mp40 chart at one t grid (built
    afresh for each call) and three sigma scales, as the decay sweeps make
    them, run the evaluator's values kernel once; a new t runs it again."""
    ctx = MPContext(40)
    arc = graph_arc(["0", "0", "0.5", "0.01", "-0.01"], ctx)
    phi = extend_arc(arc, ctx.real("0.03"), n=2, K=4, D=16, ctx=ctx,
                     with_radius=False).phi
    ev, calls = phi.jet_evaluator, []
    values = ev._values
    ev._values = lambda ts: calls.append(len(ts)) or values(ts)
    for sm in ("0.025", "0.05", "0.1"):
        ts = [ctx.real(-0.1 + 0.2 * j / 6) for j in range(7)]
        pde_residual(phi, ts, [ctx.real(sm) * (j + 1) / 4 for j in range(4)])
    assert calls == [7]
    pde_residual(phi, [ctx.real("0.01")] + ts[1:], [ctx.real("0.05")])
    assert calls == [7, 7]


@pytest.mark.parametrize("kind", ["float64", "Fraction", "mp40"])
def test_jet_fields_of_f0_alone_take_the_grid_shape(kind):
    """An expansion with f_0 alone (K = 0) gives every jet field the
    shape of the grid, a t column against a sigma row, whatever the form
    of its coefficients."""
    number = {"float64": float, "Fraction": Fraction,
              "mp40": MPContext(40).real}[kind]
    f0 = poly_from([number(c) for c in (0, 0, 0, 1, -2, 3)])
    ev = SigmaJetEvaluator(SigmaExpansion(n=2, terms=[f0]))
    dtype = float if kind == "float64" else object
    t = np.array([number(c) / 8 for c in (-1, 0, 2)], dtype=dtype)
    sigma = np.array([number(1) / 16, number(1) / 4], dtype=dtype)
    fields = vars(ev.jet(t[:, None], sigma[None, :]))
    assert {name: np.shape(v) for name, v in fields.items()} == dict.fromkeys(
        fields, (3, 2))
