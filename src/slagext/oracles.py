"""Closed-form ground truths used to validate the pipeline end to end.

The rotation-cone family, the invariant-plane family, and the unit-circle
locus all have exact descriptions, so residuals against them measure real
error rather than self-consistency.
"""
from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ambient import (
    _sphere_from_angles,
    _van_der_corput,
    chart_frame,
    chart_point,
    momentum_so_n,
    plane_P,
    planes_same,
    planes_through_line,
    slag_residual,
    sphere_points,
)
from .arcs import ArcSpec, existence_gate
from .engine import Chart, extend_arc, pde_residual
from .errors import GateObstructionError
from .precision import FLOAT64, Context


@dataclass(frozen=True)
class OracleResult:
    name: str
    max_residual: float
    samples: int
    tolerance: float
    passed: bool
    details: Optional[dict] = None


def _result(name: str, max_residual: float, samples: int, tolerance: float,
            extra_ok: bool = True, details: Optional[dict] = None) -> OracleResult:
    return OracleResult(
        name=name,
        max_residual=float(max_residual),
        samples=samples,
        tolerance=float(tolerance),
        passed=bool(max_residual <= tolerance) and extra_ok,
        details=details,
    )


# ---------------------------------------------------------------------------
# rotation-invariant cones in C^m


def harvey_lawson_sample(m: int, c: float, count: int = 200,
                         tolerance: float = 1e-9) -> OracleResult:
    """Residuals of the cone family {zeta u : Im(zeta^m) = c} in C^m.

    c = 0 gives the union of m flat sheets (rays at angles k pi/m); for
    c != 0 the radius solves in closed form per angular sector where
    sin(m theta) carries the sign of c, r = (c/sin(m theta))^(1/m). The
    tangent frames are exact: d/dr = e^(i beta) u on a ray, d/dtheta =
    (r' + i r) e^(i theta) u with r' = -r cot(m theta) on an arc, and
    d/da_i = zeta du/da_i on both.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"level c must be finite, got {c}")
    sectors = []
    if c == 0.0:
        sectors = [("ray", k * math.pi / m) for k in range(m)]
    else:
        for k in range(2 * m):
            lo = k * math.pi / m
            mid = lo + 0.5 * math.pi / m
            if math.copysign(1.0, math.sin(m * mid)) == math.copysign(1.0, c):
                sectors.append(("arc", lo))
    per = max(1, count // len(sectors))
    worst = 0.0
    used = 0
    idx = 1
    for kind, base_angle in sectors:
        for _ in range(per):
            frac = 0.15 + 0.7 * _van_der_corput(idx, 2)
            angles = [0.3 + (math.pi - 0.6) * _van_der_corput(idx, p)
                      for p in (3, 5, 7, 11, 13)[: m - 1]]
            idx += 1
            if kind == "ray":
                dzeta = cmath.exp(1j * base_angle)
                zeta = (0.5 + frac) * dzeta
            else:
                th = base_angle + (0.12 + 0.76 * frac) * math.pi / m
                r = (c / math.sin(m * th)) ** (1.0 / m)
                zeta = r * cmath.exp(1j * th)
                dzeta = complex(-r / math.tan(m * th), r) * cmath.exp(1j * th)
            u, du = _sphere_from_angles(angles)
            rec = slag_residual(np.column_stack([dzeta * u, *(zeta * du)]))
            worst = np.max([worst, rec.omega_res, rec.upsilon_res])
            used += 1
    return _result(
        f"rotation-cone m={m} c={c:g}", worst, used, tolerance,
        details={"sectors": len(sectors)},
    )


# ---------------------------------------------------------------------------
# the unit-circle locus


def unit_circle_residual(n: int, chart: Chart, sigma_max: float,
                         t_halfwidth: float = 0.15, samples: int = 500,
                         tolerance: float = 1e-8) -> OracleResult:
    """Check chart points against the exact invariant locus of the unit
    circle: F1 = |zeta|^2 - n(|z|^2 - 1) and F2 = Re(z zeta^n) both vanish.

    zeta is recovered from the ambient point through the sphere direction
    used to produce it, so the test exercises the full chart_point path:
    one array call lifts each sample in its own one of 8 directions. A
    non-finite residual makes the result non-finite, so it fails.
    """
    if chart.n != n:
        raise ValueError("chart was built for a different n")
    base = np.linspace(-t_halfwidth, t_halfwidth, 7)
    w, _ = chart.reduced_map.point(base, np.zeros_like(base))
    if np.any(np.abs(np.abs(w) - 1.0) > 1e-6):
        raise ValueError("chart is not based on the unit circle")

    dirs = np.array(sphere_points(n, 8))
    nt = max(2, int(math.sqrt(samples / 2)))
    ns = max(2, (samples + nt - 1) // nt)
    t = np.array([-t_halfwidth + 2 * t_halfwidth * i / (nt - 1)
                  for i in range(nt)])
    s = np.array([-sigma_max + 2 * sigma_max * j / (ns - 1)
                  for j in range(ns)])
    # sample (i, j), at (t_i, s_j), uses direction (i * ns + j) mod 8; the
    # jet takes the t column against the s row, each f_k once per t
    which = np.arange(nt * ns) % len(dirs)
    p = chart_point(chart, t[:, None], s, dirs[which].reshape(nt, ns, 1, n))
    z0, *zs = (c.reshape(-1) for c in p.z)
    # the first largest component of each direction, as max() picks it
    kmax = np.argmax(np.abs(dirs), axis=1)[which]
    zeta = np.select([kmax == k for k in range(n)], zs) / dirs[which, kmax]
    f1 = sum(np.abs(zk) ** 2 for zk in zs) - n * (np.abs(z0) ** 2 - 1.0)
    f2 = (z0 * zeta ** n).real
    return _result(f"unit-circle locus n={n}",
                   np.max(np.abs([f1, f2])), nt * ns, tolerance)


# ---------------------------------------------------------------------------
# invariant planes


def plane_oracle(n: int, trials: int = 20, tolerance: float = 1e-12,
                 seed: int = 0) -> OracleResult:
    """Random invariant planes are calibrated flat sheets, and a random
    line in the fixed axis lies in exactly n of them with pairwise
    disjoint rotating-space projections."""
    rng = random.Random(seed)
    worst = 0.0
    counts_ok = True
    line_counts = []
    for _ in range(trials):
        psi = rng.uniform(0.0, math.pi)
        rec = slag_residual(np.transpose(plane_P(psi, n).basis))
        worst = np.max([worst, rec.omega_res, rec.upsilon_res])

        beta = rng.uniform(0.0, math.pi)
        fam = planes_through_line(beta, n)
        v = np.array([math.cos(beta), math.sin(beta)] + [0.0] * (2 * n))
        for pl in fam:
            worst = np.max([worst, np.max(np.abs(pl.projector() @ v - v))])
        for i in range(n):
            for j in range(i + 1, n):
                if planes_same(fam[i], fam[j], tol=1e-9):
                    counts_ok = False
                qi = fam[i].projector()[2:, 2:]
                qj = fam[j].projector()[2:, 2:]
                if float(np.linalg.norm(qi @ qj, ord=2)) >= 1.0 - 1e-9:
                    counts_ok = False
        # independent count: local minima of the containment defect
        grid = np.linspace(0.0, math.pi, 721)[:-1]
        defect = np.array([
            float(np.max(np.abs(plane_P(float(psi_), n).projector() @ v - v)))
            for psi_ in grid
        ])
        found = 0
        for k in range(len(grid)):
            a = defect[k - 1]
            b = defect[k]
            cc = defect[(k + 1) % len(grid)]
            if b <= a and b < cc and b < 0.05:
                found += 1
        line_counts.append(found)
        if found != n:
            counts_ok = False
    return _result(
        f"invariant planes n={n}", worst, trials, tolerance,
        extra_ok=counts_ok, details={"line_plane_counts": line_counts},
    )


# ---------------------------------------------------------------------------
# branch separation


def branch_separation(arc: ArcSpec, n: int, K: int, sigma_steps: int = 5,
                      t_points: int = 9, tolerance: float = 1e-13,
                      ctx: Context = FLOAT64) -> OracleResult:
    """All branch pairs separate linearly in sigma and coincide on the arc.

    The n charts are built in ctx at the middle of the arc's domain with
    degree budget max(4K, 12). For each pair j < k the minimum distance
    between branch point sets over |t| <= 0.1, at fixed sigma in
    [0.01, 0.05], is fitted to c * sigma through the origin; every fitted
    c must be positive. The reported residual is the worst coincidence
    defect at sigma = 0.
    """
    gate = existence_gate(arc, n)
    if not gate.ok:
        raise GateObstructionError(
            f"branch field is obstructed (shift {gate.shift})"
        )
    lo, hi = arc.domain
    charts = [extend_arc(arc, 0.5 * (lo + hi), n=n, K=K, D=max(4 * K, 12),
                         branch=j, ctx=ctx, with_radius=False)
              for j in range(n)]
    u = sphere_points(n, 1)[0]
    ts = np.linspace(-0.1, 0.1, t_points)
    sigmas = np.linspace(0.01, 0.05, sigma_steps)

    def cloud(chart, s):
        """The ambient points over ts at sigma = s, one row per t."""
        p = chart_point(chart, ts, np.full_like(ts, s), u)
        return list(np.stack(p.z, axis=-1))

    # each branch's cloud once per sigma, and once on the arc
    clouds = [[cloud(ch, s) for s in sigmas] for ch in charts]
    on_arc = [cloud(ch, 0.0) for ch in charts]
    slopes = {}
    coincide = 0.0
    used = 0
    for j in range(n):
        for k in range(j + 1, n):
            dvals = []
            for cj, ck in zip(clouds[j], clouds[k]):
                dmin = min(float(np.linalg.norm(a - b))
                           for a in cj for b in ck)
                dvals.append(dmin)
                used += len(cj) * len(ck)
            num = float(np.dot(dvals, sigmas))
            den = float(np.dot(sigmas, sigmas))
            slopes[f"{j}-{k}"] = num / den
            coincide = max(coincide, max(
                float(np.linalg.norm(a - b))
                for a, b in zip(on_arc[j], on_arc[k])
            ))
    all_positive = all(v > 0.0 for v in slopes.values())
    return _result(
        f"branch separation n={n}", coincide, used, tolerance,
        extra_ok=all_positive, details={"fitted_slopes": slopes},
    )


# ---------------------------------------------------------------------------
# combined chart report


def chart_residual_report(chart: Chart, sigma_max: float, nt: int = 9,
                          ns: int = 7) -> dict:
    """PDE, symplectic, volume, and momentum residuals of one chart over an
    nt x ns grid of |t| <= 0.1, 0 < sigma <= sigma_max, as a plain dict
    ready for serialization. A NaN residual anywhere makes its maximum
    NaN."""
    if not sigma_max > 0:
        raise ValueError(f"sigma_max must be positive, got {sigma_max}")
    if nt < 2:
        raise ValueError(f"nt must be >= 2, got {nt}")
    if ns < 1:
        raise ValueError(f"ns must be >= 1, got {ns}")
    t_halfwidth = 0.1
    ts = [(-t_halfwidth + 2 * t_halfwidth * i / (nt - 1)) for i in range(nt)]
    sig = [sigma_max * (j + 1) / ns for j in range(ns)]
    pde = pde_residual(chart.phi, ts, sig)
    n = chart.n
    # the forms on a coarser grid, all frames from one jet evaluation
    T, S = np.meshgrid(ts[:: max(1, nt // 4)], sig[:: max(1, ns // 3)],
                       indexing="ij")
    rec = slag_residual(chart_frame(chart, T, S, [0.7] * (n - 1)))
    # momentum over the whole grid and 6 directions, lifted in one call
    T, S = np.meshgrid(ts, sig, indexing="ij")
    mu = momentum_so_n(chart_point(chart, T, S, sphere_points(n, 6)))
    return {
        "n": chart.n,
        "K": chart.K,
        "D": chart.D,
        "branch": chart.branch,
        "sigma_max": sigma_max,
        "grid": pde.grid,
        "max_pde": pde.max_pde,
        "max_omega": float(np.max(rec.omega_res)),
        "max_upsilon": float(np.max(rec.upsilon_res)),
        "max_momentum": float(np.max(np.abs(mu))),
        "pde_samples": pde.samples,
    }
