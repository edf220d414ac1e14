"""Arc loading, normalization frames, winding and gate tests."""
from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest

from slagext import precision
from slagext.arcs import (
    ArcSpec,
    _shift_to_cap,
    arc_tangent,
    existence_gate,
    graph_arc,
    load_arc,
    local_series,
    normalize_at,
    rotation_number,
    tangent_angles,
    unit_circle_arc,
)
from slagext.errors import NormalizationError, ResolutionError
from slagext.precision import FLOAT64, MPContext
from slagext.series import (TaylorPoly, poly_eval, poly_from, poly_pad,
                            poly_shift, poly_truncate)


PARABOLA_DOC = {"kind": "graph", "g_coeffs": ["0", "0", "0.5"], "degree_cap": 24}


def test_load_graph_arc_decimal_strings():
    arc = load_arc(PARABOLA_DOC)
    assert arc.kind == "graph"
    assert arc.g.cap == 24
    assert arc.g.coeffs[2] == 0.5


def test_load_arc_rejects_bad_docs():
    with pytest.raises(ValueError):
        load_arc({"kind": "spiral"})
    with pytest.raises(ValueError):
        load_arc({"kind": "graph"})
    with pytest.raises(ValueError):
        load_arc(
            {
                "kind": "parametric",
                "x_coeffs": ["0", "1"],
                "y_coeffs": ["0"],
            }
        )
    # cusp at s = 0: (s^2, s^3)
    with pytest.raises(NormalizationError):
        load_arc(
            {
                "kind": "parametric",
                "x_coeffs": ["0", "0", "1", "0"],
                "y_coeffs": ["0", "0", "0", "1"],
            }
        )


@pytest.mark.parametrize("ctx", [FLOAT64, MPContext(30)],
                         ids=["float64", "mp30"])
def test_load_graph_arc_rejects_terms_above_degree_cap(ctx):
    doc = {"kind": "graph", "g_coeffs": ["0", "0", "0.5", "1", "2"],
           "degree_cap": 2}
    with pytest.raises(ValueError, match=r"degree 4, above degree_cap 2"):
        load_arc(doc, ctx)
    # zeros above the cap are no terms: they load as the quadratic
    doc["g_coeffs"] = ["0", "0", "0.5", "0", "0.0"]
    arc = load_arc(doc, ctx)
    assert arc.g.cap == 2 and arc.g.coeffs == (0, 0, ctx.real("0.5"))
    # and a cap at the degree keeps every coefficient
    doc.update(g_coeffs=["0", "0", "0.5", "1", "2"], degree_cap=4)
    assert load_arc(doc, ctx).g.coeffs[3:] == (1, 2)


def test_parabola_normalization_is_trivial():
    arc = load_arc(PARABOLA_DOC)
    na = normalize_at(arc, 0.0, n=2, cap=12)
    assert na.frame.a == 0
    assert na.frame.theta == 0.0
    expect = [0.0] * 13
    expect[3] = 1 / 6
    assert list(na.f0.coeffs) == pytest.approx(expect, abs=1e-15)


def test_graph_normalization_away_from_origin():
    arc = load_arc(PARABOLA_DOC)
    s0 = 0.4
    na = normalize_at(arc, s0, n=3, cap=10)
    # frame maps the base point to the origin
    z0 = complex(s0, 0.5 * s0 * s0)
    chi = 3 * na.frame.theta
    assert abs(cmath.exp(1j * chi) * z0 + na.frame.a) < 1e-15
    # and the mapped tangent is the positive real axis
    tangent = complex(1.0, 0.4)
    mapped = cmath.exp(1j * chi) * tangent
    assert abs(mapped.imag) < 1e-15
    assert mapped.real > 0
    assert 0.0 <= na.frame.theta < 2 * math.pi / 3
    # f0'' vanishes at the base point by construction
    assert na.f0.coeffs[0] == 0
    assert na.f0.coeffs[1] == 0
    assert na.f0.coeffs[2] == 0


def test_circle_frame_and_potential():
    arc = unit_circle_arc()
    na = normalize_at(arc, 0.0, n=2, cap=9)
    assert na.frame.theta == pytest.approx(3 * math.pi / 4, abs=1e-15)
    assert abs(na.frame.a - 1j) < 1e-15
    # local potential of the normalized circle: antiderivative of
    # 1 - sqrt(1 - t^2)
    expect = [0, 0, 0, 1 / 6, 0, 1 / 40, 0, 1 / 112, 0, 5 / 1152]
    assert list(na.f0.coeffs) == pytest.approx(expect, abs=1e-15)


def test_circle_potential_is_base_point_independent():
    arc = unit_circle_arc()
    a = normalize_at(arc, 0.0, n=2, cap=9)
    b = normalize_at(arc, 1.234, n=2, cap=9)
    assert list(b.f0.coeffs) == pytest.approx(list(a.f0.coeffs), abs=1e-13)


def test_reversed_circle_flips_potential_sign():
    arc = unit_circle_arc(orientation=-1)
    na = normalize_at(arc, 0.0, n=2, cap=9)
    expect = [0, 0, 0, -1 / 6, 0, -1 / 40, 0, -1 / 112, 0, -5 / 1152]
    assert list(na.f0.coeffs) == pytest.approx(expect, abs=1e-15)


def test_local_series_matches_circle_samples():
    arc = unit_circle_arc()
    X, Y = local_series(arc, 0.3, 20)
    for h in (-0.2, 0.0, 0.15):
        assert poly_eval(X, h) == pytest.approx(math.cos(0.3 + h), abs=1e-15)
        assert poly_eval(Y, h) == pytest.approx(math.sin(0.3 + h), abs=1e-15)
    arc_cw = unit_circle_arc(orientation=-1)
    X, Y = local_series(arc_cw, 0.3, 20)
    for h in (-0.2, 0.15):
        assert poly_eval(X, h) == pytest.approx(math.cos(0.3 + h), abs=1e-15)
        assert poly_eval(Y, h) == pytest.approx(-math.sin(0.3 + h), abs=1e-15)


def test_graph_tangent_away_from_origin():
    # the Taylor shift must see every coefficient of g before truncation
    for coeffs, slope in ((["0", "0", "0.5"], lambda s: s),
                          (["0.1", "-0.2", "0", "1"], lambda s: -0.2 + 3 * s * s)):
        arc = graph_arc(coeffs)
        for s in (-0.4, 0.25, 0.7):
            tx, ty = arc_tangent(arc, s)
            assert tx == 1.0
            assert ty == pytest.approx(slope(s), abs=1e-15)


def test_rotation_number_both_orientations():
    assert rotation_number(unit_circle_arc()) == 1
    assert rotation_number(unit_circle_arc(orientation=-1)) == -1


def test_rotation_number_warns_for_doubled_winding():
    def hook(s0, cap):
        # (cos 2s, sin 2s): tangent winds twice per period
        xc, yc = [], []
        fact = 1.0
        cyc_x = (
            math.cos(2 * s0),
            -math.sin(2 * s0),
            -math.cos(2 * s0),
            math.sin(2 * s0),
        )
        cyc_y = (
            math.sin(2 * s0),
            math.cos(2 * s0),
            -math.sin(2 * s0),
            -math.cos(2 * s0),
        )
        for j in range(cap + 1):
            if j > 0:
                fact *= j
            xc.append(cyc_x[j % 4] * 2**j / fact)
            yc.append(cyc_y[j % 4] * 2**j / fact)
        return poly_from(xc), poly_from(yc)

    X, Y = hook(0.0, 16)
    arc = ArcSpec(
        kind="parametric", x=X, y=Y, closed=True, period=2 * math.pi,
        domain=(0.0, 2 * math.pi), resample=hook,
    )
    with pytest.warns(UserWarning):
        assert rotation_number(arc) == 2


def test_tangent_angles_resolution_error():
    arc = unit_circle_arc()
    with pytest.raises(ResolutionError):
        tangent_angles(arc, [0.0, 2.0, 4.0])


def test_existence_gate_values():
    circle = unit_circle_arc()
    g2 = existence_gate(circle, 2)
    assert g2.ok and g2.shift == 0 and g2.turns == 1
    g3 = existence_gate(circle, 3)
    assert not g3.ok and g3.shift == 2
    g4 = existence_gate(circle, 4)
    assert not g4.ok and g4.shift == 2
    open_arc = graph_arc(["0", "0", "0.5"])
    assert existence_gate(open_arc, 5).ok


def test_normalize_rejects_singular_base_point():
    X = poly_from([0.0, 0.0, 1.0], cap=8)
    Y = poly_from([0.0, 0.0, 0.0, 1.0], cap=8)
    arc = ArcSpec(kind="parametric", x=X, y=Y)
    with pytest.raises(NormalizationError):
        normalize_at(arc, 0.0, n=2, cap=6)


def test_normalize_in_mp_context():
    from slagext.precision import mp_context

    ctx = mp_context(40)
    arc = unit_circle_arc(ctx=ctx)
    na = normalize_at(arc, ctx.real("0.25"), n=2, cap=9, ctx=ctx)
    import mpmath

    assert abs(na.f0.coeffs[3] - mpmath.mpf(1) / 6) < mpmath.mpf(10) ** -35
    chi = 2 * na.frame.theta
    z0 = mpmath.mpc(mpmath.cos(ctx.real("0.25")), mpmath.sin(ctx.real("0.25")))
    assert abs(ctx.exp_i(chi) * z0 + na.frame.a) < mpmath.mpf(10) ** -35


def _shift_of_every_coefficient(p, s0, cap: int) -> TaylorPoly:
    """p padded to the cap, Taylor-shifted by s0 in full, truncated."""
    p = poly_shift(poly_pad(p, max(cap, p.cap)), s0)
    return p if p.cap == cap else poly_truncate(p, cap)


def _bits(p: TaylorPoly) -> list:
    return [(type(c), getattr(c, "_mpf_", None) or repr(c))
            for c in p.coeffs]


def test_shift_to_cap_equals_the_shift_of_every_coefficient():
    """Arc data shifted below the top coefficients the shift leaves as they
    are gives the full shift's coefficients, type and bits, zero signs
    included: -0.0 tops, negative padding zeros, NaN, and s0 of other types
    than the data (which the full shift's zeros take on) or not finite."""
    mp = MPContext(40)
    kinds = (float, mp.real,
             lambda c: Fraction(c) if math.isfinite(c) else c,
             lambda c: int(c) if math.isfinite(c) and c == int(c) else c)
    polys = ([0.0, 1.0], [0.0, 0.0, 0.5, 0.1], [1.0, 2.0, -0.0], [-1.0, 2.0],
             [0.0, 1.0, -0.0, 0.0], [0.25, -0.5, 0.125, -0.0, 0.0],
             [1.0, math.nan, 0.0], [-0.0])
    shifts = (0.3, -0.7, -0.0, 3, math.inf, -math.inf, math.nan,
              Fraction(1, 3), mp.real(1) / 3)
    for number in kinds:
        for cs in polys:
            p = TaylorPoly(tuple(map(number, cs)))
            for s0 in shifts:
                for cap in sorted({0, len(cs) - 1, len(cs) + 3}):
                    assert _bits(_shift_to_cap(p, s0, cap)) == _bits(
                        _shift_of_every_coefficient(p, s0, cap))


def test_local_series_shifts_graph_data_below_its_zeros(monkeypatch):
    """An mp40 graph arc padded to degree_cap 48: the shifts of x = (0, 1)
    and of the quartic g run below their top nonzero coefficients, 1 + 10
    fused multiply-adds instead of 2 x 1,176 on the padded data."""
    ctx = MPContext(40)
    arc = load_arc({"kind": "graph", "degree_cap": 48, "g_coeffs": [
        "0", "0", "0.503", "0.0071", "-0.0042"]}, ctx)
    calls = []
    fused = precision.fused_muladd
    monkeypatch.setattr(precision, "fused_muladd",
                        lambda *a: calls.append(1) or fused(*a))
    X, Y = local_series(arc, ctx.real("0.0371"), 48)
    assert len(calls) == 11 and X.cap == Y.cap == 48
