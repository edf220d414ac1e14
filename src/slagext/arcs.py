"""Planar real-analytic arcs and their normalized local frames.

An arc lives in the distinguished complex line of the ambient space. Charts
are always built in a normalized frame: the base point moves to the origin
and the tangent becomes the positive real axis, after which the arc is the
graph of an odd-order potential slope, f0' = local graph function. The frame
is recorded as the rigid motion (a, theta) with z -> e^(i n theta) z + a on
the distinguished line; theta is stored in [0, 2*pi/n).

Closed arcs carry a period and may carry a resampling hook that returns the
exact local Taylor series about any parameter; arcs loaded from JSON fall
back to polynomial Taylor shifts, which is exact for polynomial data.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from .errors import NormalizationError, ResolutionError
from .precision import FLOAT64, Context
from .series import (
    TaylorPoly,
    poly_antiderivative,
    poly_compose_inverse,
    poly_from,
    poly_pad,
    poly_shift,
    poly_truncate,
)

ResampleHook = Callable[[object, int], tuple]


@dataclass(frozen=True)
class ArcSpec:
    """A planar arc, either a graph y = g(x) or a parametric (x(s), y(s))."""

    kind: str
    g: Optional[TaylorPoly] = None
    x: Optional[TaylorPoly] = None
    y: Optional[TaylorPoly] = None
    closed: bool = False
    period: Optional[object] = None
    domain: tuple = (-1.0, 1.0)
    resample: Optional[ResampleHook] = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind == "graph":
            if self.g is None:
                raise ValueError("graph arc needs g")
        elif self.kind == "parametric":
            if self.x is None or self.y is None:
                raise ValueError("parametric arc needs x and y")
            if self.x.cap != self.y.cap:
                raise ValueError("parametric arc: x and y caps differ")
        else:
            raise ValueError(f"unknown arc kind {self.kind!r}")
        if self.closed:
            if self.kind != "parametric":
                raise ValueError("closed arcs must be parametric")
            if self.period is None or not self.period > 0:
                raise ValueError("closed arc needs a positive period")


@dataclass(frozen=True)
class Frame:
    """Rigid motion z -> e^(i n theta) z + a of the distinguished line."""

    a: object
    theta: object


@dataclass(frozen=True)
class NormalizedArc:
    f0: TaylorPoly
    frame: Frame


def local_series(arc: ArcSpec, s0, cap: int) -> tuple:
    """Taylor series (X, Y) of the arc about parameter s0, in h = s - s0.

    Polynomial data is shifted at its full length and truncated after, since
    every stored coefficient feeds the low orders about s0 != 0.
    """
    if arc.kind == "graph":
        zero = arc.g.coeffs[0] * 0
        x, y = TaylorPoly((zero, zero + 1)), arc.g  # the graph is (s, g(s))
    elif arc.resample is not None:
        X, Y = arc.resample(s0, cap)
        if X.cap != cap or Y.cap != cap:
            raise ValueError("resample hook returned wrong degree cap")
        return X, Y
    else:
        x, y = arc.x, arc.y
    return _shift_to_cap(x, s0, cap), _shift_to_cap(y, s0, cap)


def _shift_to_cap(p: TaylorPoly, s0, cap: int) -> TaylorPoly:
    p = poly_pad(p, max(cap, p.cap))  # arc data is an exact polynomial
    # the shift leaves each c below a 0 as it is where c + 0*s0 is c, bit
    # for bit and of c's type: it runs below the lowest such c only
    cs, top = p.coeffs, p.cap
    while top and cs[top] == 0 and type(c := cs[top - 1]) is type(
            w := c + cs[top] * s0) and w == c and (
            math.copysign(1, w) == math.copysign(1, c)):
        top -= 1
    p = TaylorPoly(poly_shift(poly_truncate(p, top), s0).coeffs + cs[top + 1:])
    return p if p.cap == cap else poly_truncate(p, cap)


def arc_tangent(arc: ArcSpec, s) -> tuple:
    X, Y = local_series(arc, s, 1)
    return X.coeffs[1], Y.coeffs[1]


def load_arc(doc: dict, ctx: Context = FLOAT64) -> ArcSpec:
    """Build an ArcSpec from a parsed JSON document.

    Coefficients are decimal strings (plain numbers are accepted).
    Graph form: {"kind": "graph", "g_coeffs": [...], "degree_cap": D}, no
    nonzero coefficient above degree D.
    Parametric form: {"kind": "parametric", "x_coeffs": [...],
    "y_coeffs": [...], "closed": bool, "period": p}, optional "domain".
    """
    if not isinstance(doc, dict):
        raise ValueError("arc document must be a JSON object")
    kind = doc.get("kind")
    if kind == "graph":
        coeffs = [ctx.real(c) for c in _require(doc, "g_coeffs")]
        cap = int(doc.get("degree_cap", max(len(coeffs) - 1, 2)))
        degree = max((j for j, c in enumerate(coeffs) if c), default=0)
        if degree > cap:
            raise ValueError(f"g_coeffs has a nonzero coefficient of degree "
                             f"{degree}, above degree_cap {cap}")
        g = poly_from(coeffs, cap=cap)
        arc = ArcSpec(kind="graph", g=g, domain=_domain(doc, ctx))
    elif kind == "parametric":
        xc = [ctx.real(c) for c in _require(doc, "x_coeffs")]
        yc = [ctx.real(c) for c in _require(doc, "y_coeffs")]
        if len(xc) != len(yc):
            raise ValueError("x_coeffs and y_coeffs must have equal length")
        closed = bool(doc.get("closed", False))
        period = ctx.real(doc["period"]) if "period" in doc else None
        x = poly_from(xc)
        y = poly_from(yc)
        if closed:
            domain = (ctx.real(0), period)
        else:
            domain = _domain(doc, ctx)
        arc = ArcSpec(
            kind="parametric", x=x, y=y, closed=closed, period=period,
            domain=domain,
        )
    else:
        raise ValueError(f"unknown arc kind {kind!r}")
    _check_regular(arc)
    return arc


def _require(doc, key):
    if key not in doc:
        raise ValueError(f"arc document missing {key!r}")
    return doc[key]


def _domain(doc, ctx):
    lo, hi = doc.get("domain", (-1.0, 1.0))
    lo, hi = ctx.real(lo), ctx.real(hi)
    if not lo < hi:
        raise ValueError("arc domain must be an increasing pair")
    return (lo, hi)


def _check_regular(arc: ArcSpec):
    if arc.kind == "graph":
        return
    samples = 64
    lo, hi = arc.domain
    for j in range(samples + 1):
        s = lo + (hi - lo) * j / samples
        tx, ty = arc_tangent(arc, s)
        if float(tx * tx + ty * ty) < 1e-18:
            raise NormalizationError(
                f"singular parametrization near s = {float(s):.6g}"
            )


def unit_circle_arc(ctx: Context = FLOAT64, orientation: int = 1) -> ArcSpec:
    """Counterclockwise (orientation +1) unit circle with an exact
    trigonometric resampling hook, so local series carry full precision at
    any degree cap."""
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    two_pi = 2 * ctx.pi()

    def hook(s0, cap):
        # the curve is (cos(o*s), sin(o*s)); expand about the geometric
        # angle o*s0, picking up o^j per derivative in s
        ang = orientation * s0
        c0, sv = ctx.cos(ang), ctx.sin(ang)
        cyc_x = (c0, -sv, -c0, sv)  # d^j cos at ang, over j!
        cyc_y = (sv, c0, -sv, -c0)
        xc, yc = [], []
        fact = ctx.real(1)
        sgn = 1
        for j in range(cap + 1):
            if j > 0:
                fact = fact * j
                sgn = sgn * orientation
            xc.append(cyc_x[j % 4] * sgn / fact)
            yc.append(cyc_y[j % 4] * sgn / fact)
        return poly_from(xc), poly_from(yc)

    X, Y = hook(ctx.real(0), 32)
    return ArcSpec(
        kind="parametric", x=X, y=Y, closed=True, period=two_pi,
        domain=(ctx.real(0), two_pi), resample=hook,
    )


def graph_arc(coeffs: Sequence, ctx: Context = FLOAT64) -> ArcSpec:
    g = poly_from([ctx.real(c) for c in coeffs])
    return ArcSpec(kind="graph", g=g, domain=(ctx.real(-1.0), ctx.real(1.0)))


def normalize_at(arc: ArcSpec, s0, n: int, cap: int = 24,
                 ctx: Context = FLOAT64) -> NormalizedArc:
    """Local potential and frame at parameter s0, computed in ctx: s0 and
    the arc's data enter it first (``precision``'s rule).

    The frame angle is theta = chi / n with chi in [0, 2*pi) the rotation
    that maps the tangent direction to the positive real axis; a translates
    the base point to the origin. f0 is the antiderivative (vanishing to
    second order) of the local graph slope in the rotated frame.
    """
    if n < 2:
        raise ValueError("n must be >= 2")

    def enter(p):  # arc data as it enters ctx (precision's rule)
        return p and TaylorPoly(tuple(map(ctx.enter, p.coeffs)))

    # polynomial data enters before it is shifted, a hook's series after
    data = replace(arc, g=enter(arc.g), x=enter(arc.x), y=enter(arc.y))
    X, Y = map(enter, local_series(data, ctx.enter(s0), cap))
    x0, y0 = X.coeffs[0], Y.coeffs[0]
    tx, ty = X.coeffs[1], Y.coeffs[1]
    speed2 = tx * tx + ty * ty
    if float(speed2) < 1e-18:
        raise NormalizationError("singular parametrization at the base point")
    beta = ctx.atan2(ty, tx)
    two_pi = 2 * ctx.pi()
    chi = (-beta) % two_pi
    c, s = ctx.cos(chi), ctx.sin(chi)
    xs = TaylorPoly((x0 * 0,) + X.coeffs[1:])
    ys = TaylorPoly((y0 * 0,) + Y.coeffs[1:])
    u = _lin_comb(c, xs, -s, ys)
    v = _lin_comb(s, xs, c, ys)
    if not float(u.coeffs[1]) > 0:
        raise NormalizationError("frame rotation failed to orient the tangent")
    gtilde = poly_compose_inverse(v, u)
    scale = max(1.0, max(abs(float(cc)) for cc in gtilde.coeffs))
    if abs(float(gtilde.coeffs[1])) > 1e-10 * scale:
        raise NormalizationError("tangent not eliminated by the frame")
    # the linear term is zero by construction; clear the rounding residue
    z = gtilde.coeffs[0] * 0
    gtilde = TaylorPoly((z, z) + gtilde.coeffs[2:])
    f0 = poly_truncate(poly_antiderivative(gtilde), cap)
    a = -(ctx.exp_i(chi) * ctx.make_complex(x0, y0))
    theta = chi / n
    return NormalizedArc(f0=f0, frame=Frame(a=a, theta=theta))


def _lin_comb(ca, a: TaylorPoly, cb, b: TaylorPoly) -> TaylorPoly:
    return TaylorPoly(tuple(ca * x + cb * y for x, y in zip(a.coeffs, b.coeffs)))


def tangent_angles(arc: ArcSpec, s_values) -> list:
    """Unwrapped tangent angles beta(s) along the arc (float precision)."""
    out = []
    prev = None
    offset = 0.0
    for s in s_values:
        tx, ty = arc_tangent(arc, s)
        b = math.atan2(float(ty), float(tx))
        if prev is not None:
            step = b + offset - prev
            while step > math.pi:
                offset -= 2 * math.pi
                step -= 2 * math.pi
            while step < -math.pi:
                offset += 2 * math.pi
                step += 2 * math.pi
            if abs(step) > 0.5 * math.pi:
                raise ResolutionError(
                    "tangent angle step exceeds pi/2; refine the sample grid"
                )
        out.append(b + offset)
        prev = b + offset
    return out


def rotation_number(arc: ArcSpec) -> int:
    """Winding of the tangent over one period of a closed arc."""
    if not arc.closed:
        raise ValueError("rotation_number needs a closed arc")
    samples = 512
    period = float(arc.period)
    grid = [period * j / samples for j in range(samples + 1)]
    angles = tangent_angles(arc, grid)
    turns = (angles[-1] - angles[0]) / (2 * math.pi)
    rounded = round(turns)
    if abs(turns - rounded) > 1e-6:
        raise ResolutionError(
            f"tangent winding {turns:.8f} is not an integer; grid too coarse"
        )
    if abs(rounded) != 1:
        warnings.warn(
            "tangent winding is not +-1; the closed arc is not embedded",
            UserWarning,
            stacklevel=2,
        )
    return int(rounded)


@dataclass(frozen=True)
class GateResult:
    """Outcome of the closed-arc existence gate."""

    ok: bool
    shift: int
    turns: int


def existence_gate(arc: ArcSpec, n: int) -> GateResult:
    """Single-valuedness test for extensions of a closed arc.

    Traversing the arc once conjugates the branch by twice the tangent
    winding; a closed extension exists iff 2 * winding = 0 mod n. Open arcs
    always pass.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not arc.closed:
        return GateResult(ok=True, shift=0, turns=0)
    turns = rotation_number(arc)
    shift = (2 * turns) % n
    return GateResult(ok=(shift == 0), shift=shift, turns=turns)
