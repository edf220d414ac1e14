"""Ambient layer tests: cone map, group actions, planes, residuals, J0."""
from __future__ import annotations

import cmath
import dataclasses
import math
import random

import numpy as np
import pytest

from slagext.ambient import (
    AmbientPoint,
    apply_motion_F,
    chart_parametrization,
    chart_point,
    chart_tangent_plane,
    eta_coframe,
    group_motion,
    j0_coframe,
    lambda_star,
    linear_map_jacobian,
    momentum_so_n,
    phi_map,
    plane_P,
    plane_parametrization,
    planes_same,
    planes_through_line,
    pullback,
    slag_residual,
    sphere_points,
    twist_C,
)
from slagext.arcs import graph_arc, unit_circle_arc
from slagext.chartio import deserialize_chart, serialize_chart
from slagext.engine import ReducedChartMap, extend_arc
from slagext.errors import RankError, SingularLocusError


def test_phi_map_fixed_locus_and_axes():
    u = (1.0, 0.0, 0.0)
    p = phi_map(2.0 + 1.0j, 0.0, u)
    assert p.z == (2.0 + 1.0j, 0j, 0j, 0j)
    q = phi_map(0.0, 1.0, u)
    assert q.z == (0j, 1.0 + 0j, 0j, 0j)


def test_phi_map_two_to_one():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.choice([2, 3, 5])
        u = sphere_points(n, 8)[-1]
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        a = phi_map(w, z, u)
        b = phi_map(w, -z, tuple(-x for x in u))
        assert a.z == b.z


def test_phi_map_rejects_non_unit():
    with pytest.raises(ValueError):
        phi_map(0.0, 1.0, (0.5, 0.5))


def test_lambda_star_reduction_and_half_turn():
    p = AmbientPoint((1.0 + 2.0j, 0.3 - 0.1j, 0.7j))
    n = 2
    for j in (-3, 0, 1, 5):
        a = lambda_star(p, j, n)
        b = lambda_star(p, j + 2 * n, n)
        assert a.z == b.z
    full = lambda_star(p, n, n)
    assert full.z == (p.z[0], -p.z[1], -p.z[2])
    assert lambda_star(p, 0, n).z == p.z


def test_lambda_star_fixes_axis():
    p = AmbientPoint((0.3 + 9.0j, 0j, 0j, 0j))
    for j in range(8):
        assert lambda_star(p, j, 3).z == p.z


def test_group_motion_identity_and_composition():
    rng = random.Random(11)
    p = AmbientPoint((0.2 + 0.1j, 1.0 - 2.0j, 0.5j))
    assert group_motion(p, 0.0, 0.0, 2).z == p.z
    for _ in range(10):
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        th, rh = rng.uniform(-2, 2), rng.uniform(-2, 2)
        lhs = group_motion(group_motion(p, b, rh, 2), a, th, 2)
        rhs = group_motion(p, a + cmath.exp(2j * th) * b, th + rh, 2)
        assert max(abs(x - y) for x, y in zip(lhs.z, rhs.z)) < 1e-13


def test_group_motion_acts_transitively_on_planes():
    # the plane family transforms with the opposite angle sign
    n = 3
    base = plane_P(0.0, n)
    theta = 0.4
    moved = [group_motion(AmbientPoint(b), 0.0, theta, n) for b in base.basis]
    target = plane_P(-theta, n)
    cols = []
    for mp_ in moved:
        cols.append([x for c in mp_.z for x in (c.real, c.imag)])
    B = np.array(cols).T
    proj = B @ B.T
    assert np.max(np.abs(proj - target.projector())) < 1e-12


def test_momentum_rank_one_and_unit_example():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        u = sphere_points(n, 10)[-1]
        p = phi_map(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), u)
        assert np.max(np.abs(momentum_so_n(p))) <= 1e-15
    q = AmbientPoint((0j, 1.0 + 0j, 1j, 0j))
    mu = momentum_so_n(q)
    assert mu[0, 1] == 1.0 and mu[1, 0] == -1.0


def test_momentum_on_chart_points():
    ch = extend_arc(unit_circle_arc(), 0.2, n=3, K=4, D=16)
    worst = 0.0
    for u in sphere_points(3, 12):
        for t in (-0.1, 0.05):
            for s in (0.0, 0.02, 0.05):
                worst = max(worst, float(np.max(np.abs(
                    momentum_so_n(chart_point(ch, t, s, u))))))
    assert worst <= 1e-14


def test_chart_point_flat_chart_and_arc_locus():
    flat = extend_arc(graph_arc(["0"]), 0.0, n=2, K=3, D=12)
    u = (0.6, 0.8)
    p = chart_point(flat, 0.25, 0.1, u)
    assert p.z[0] == 0.25 + 0j
    assert abs(p.z[1] - 0.06) < 1e-16 and abs(p.z[2] - 0.08) < 1e-16
    # sigma = 0 lands on the arc regardless of u
    circ = extend_arc(unit_circle_arc(), 0.4, n=2, K=4, D=16)
    a = chart_point(circ, 0.05, 0.0, (1.0, 0.0))
    b = chart_point(circ, 0.05, 0.0, (0.0, 1.0))
    assert a.z == b.z
    assert abs(abs(a.z[0]) - 1.0) < 1e-4


def test_chart_point_uses_one_map_per_chart():
    ch = extend_arc(unit_circle_arc(), 0.3, n=3, K=4, D=16)
    u = sphere_points(3, 7)[-1]
    m = ch.reduced_map
    assert ch.reduced_map is m
    for t, s in ((0.0, 0.0), (-0.1, 0.03), (0.12, -0.05)):
        w, zeta = ReducedChartMap(ch).point(t, s)
        want = phi_map(complex(w), complex(zeta), u)
        assert chart_point(ch, t, s, u) == want
    # a copied or reloaded chart is a new object with its own map; the cached
    # map is not a field, so equality and hashing ignore it
    reloaded = deserialize_chart(serialize_chart(ch))
    for other in (dataclasses.replace(ch), reloaded):
        assert other == ch and hash(other) == hash(ch)
        assert other.reduced_map is not m
        assert (chart_point(other, 0.1, 0.02, u)
                == chart_point(ch, 0.1, 0.02, u))


def test_branch_shift_by_n_matches_antipode():
    ch = extend_arc(unit_circle_arc(), 0.0, n=3, K=3, D=12, branch=1)
    u = sphere_points(3, 7)[-1]
    p = chart_point(ch, 0.1, 0.04, u)
    # branch j+n equals branch j with the antipodal sphere point
    q = lambda_star(chart_point(ch, 0.1, 0.04, tuple(-x for x in u)), 3, 3)
    assert max(abs(x - y) for x, y in zip(p.z, q.z)) < 1e-15


def test_slag_residual_planes():
    for n in (2, 3):
        plane = plane_P(0.0, n)
        rec = slag_residual(plane_parametrization(plane),
                            [0.0] * (n + 1), h=1e-5)
        assert rec.omega_res == 0.0
        assert rec.upsilon_res == 0.0
        assert rec.phase == 1.0
    tilted = plane_parametrization(plane_P(0.7, 3))
    rec = slag_residual(tilted, [0.0] * 4, h=1e-5)
    assert rec.omega_res <= 1e-15 and rec.upsilon_res <= 1e-15
    # away from the origin the centered differences carry cancellation noise
    rec = slag_residual(tilted, [0.1, -0.2, 0.3, 0.05], h=1e-5)
    assert rec.omega_res <= 1e-11
    assert rec.upsilon_res <= 1e-11
    assert abs(abs(rec.phase) - 1.0) <= 1e-12


def test_slag_residual_degenerate_frame():
    def collapsed(params):
        s = float(params[0])
        return AmbientPoint((s + 0j, s + 0j, 0j))

    with pytest.raises(RankError):
        slag_residual(collapsed, [0.1, 0.2, 0.3])


def test_slag_residual_motion_invariance():
    ch = extend_arc(unit_circle_arc(), 0.0, n=2, K=6, D=24)
    param = chart_parametrization(ch)

    def moved(params):
        return group_motion(param(params), 0.3 - 0.7j, 0.9, 2)

    for at in ([0.05, 0.03, 0.4], [-0.1, 0.02, 2.0]):
        r1 = slag_residual(param, at, h=1e-5)
        r2 = slag_residual(moved, at, h=1e-5)
        assert abs(r1.omega_res - r2.omega_res) <= 1e-12
        assert abs(r1.upsilon_res - r2.upsilon_res) <= 1e-12


def test_chart_residuals_shrink_with_order():
    arc = unit_circle_arc()
    vals = {}
    for K in (1, 4, 10):
        ch = extend_arc(arc, 0.0, n=2, K=K, D=max(4 * K, 12), with_radius=False)
        param = chart_parametrization(ch)
        worst = 0.0
        for at in ([0.05, 0.05, 0.3], [-0.08, 0.04, 1.2]):
            rec = slag_residual(param, at, h=1e-4, richardson=True)
            worst = max(worst, rec.omega_res, rec.upsilon_res)
        vals[K] = worst
    assert vals[1] > vals[4]
    assert vals[10] <= 1e-8


def test_pullback_identity_symplectic():
    rng = random.Random(23)
    for n in (2, 3, 4):
        u = np.array(sphere_points(n, 9)[-1])
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z = complex(rng.uniform(0.3, 1.0), rng.uniform(-1, 1))

        def tangent():
            dw = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            dz = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            raw = np.array([rng.uniform(-1, 1) for _ in range(n)])
            du = raw - np.dot(raw, u) * u
            return dw, dz, du

        def curve_point(xi, s):
            dw, dz, du = xi
            uu = u + s * du
            uu = uu / np.linalg.norm(uu)
            return np.array(phi_map(w + s * dw, z + s * dz, tuple(uu)).z)

        h = 1e-5
        for _ in range(4):
            xi1, xi2 = tangent(), tangent()
            v1 = (curve_point(xi1, h) - curve_point(xi1, -h)) / (2 * h)
            v2 = (curve_point(xi2, h) - curve_point(xi2, -h)) / (2 * h)
            ambient = complex(np.vdot(v1, v2)).imag
            base = (xi1[0].conjugate() * xi2[0]).imag \
                + (xi1[1].conjugate() * xi2[1]).imag
            assert abs(ambient - base) < 1e-10


def test_pullback_identity_volume():
    rng = random.Random(31)
    for n in (2, 3, 4):
        u = np.array(sphere_points(n, 11)[-1])
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        z = complex(rng.uniform(0.4, 1.0), rng.uniform(-1, 1))
        dw = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        dz = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        # orthonormal tangent frame at u by Gram-Schmidt over the axes
        frame = []
        for k in range(n):
            e = np.zeros(n)
            e[k] = 1.0
            v = e - np.dot(e, u) * u
            for f in frame:
                v = v - np.dot(v, f) * f
            nv = np.linalg.norm(v)
            if nv > 1e-8:
                frame.append(v / nv)
        frame = frame[: n - 1]

        h = 1e-5
        cols = []

        def fd(curve):
            return (curve(h) - curve(-h)) / (2 * h)

        cols.append(fd(lambda s: np.array(phi_map(w + s * dw, z, tuple(u)).z)))
        cols.append(fd(lambda s: np.array(phi_map(w, z + s * dz, tuple(u)).z)))
        for tv in frame:
            def curve(s, tv=tv):
                uu = u + s * tv
                return np.array(phi_map(w, z, tuple(uu / np.linalg.norm(uu))).z)
            cols.append(fd(curve))
        det = complex(np.linalg.det(np.column_stack(cols)))
        ambient = det.imag
        base = (dw * (z ** (n - 1)) * dz).imag
        omega_sphere = float(np.linalg.det(np.column_stack([u] + frame)))
        assert abs(ambient - base * omega_sphere) < 1e-10


def test_plane_family_periodicity_and_axis():
    p = plane_P(0.0, 3)
    proj = p.projector()
    want = np.zeros((8, 8))
    for k in range(4):
        want[2 * k, 2 * k] = 1.0
    assert np.max(np.abs(proj - want)) < 1e-15
    q1 = plane_P(0.7, 3)
    q2 = plane_P(0.7 + math.pi, 3)
    assert planes_same(q1, q2, tol=1e-12)
    assert not planes_same(plane_P(0.3, 3), plane_P(0.5, 3), tol=1e-6)


def test_planes_through_a_line():
    n, beta = 4, 0.55
    fam = planes_through_line(beta, n)
    assert len(fam) == n
    v = np.array([x for x in (math.cos(beta), math.sin(beta))]
                 + [0.0] * (2 * n))
    for pl in fam:
        assert np.max(np.abs(pl.projector() @ v - v)) < 1e-12
    # rotating-space projections meet only at the origin
    for i in range(n):
        for j in range(i + 1, n):
            di = fam[i].psi - fam[j].psi
            qi = fam[i].projector()[2:, 2:]
            qj = fam[j].projector()[2:, 2:]
            top = float(np.linalg.norm(qi @ qj, ord=2))
            assert top <= abs(math.cos(di)) + 1e-12 < 1.0


def test_chart_tangent_plane_flat_case():
    ch = extend_arc(graph_arc(["0"]), 0.0, n=3, K=2, D=8, branch=2)
    pl = chart_tangent_plane(ch)
    u = sphere_points(3, 5)[-1]
    p = chart_point(ch, 0.0, 0.05, u)
    vec = np.array([x for c in p.z for x in (c.real, c.imag)])
    assert np.max(np.abs(pl.projector() @ vec - vec)) < 1e-12


def test_j0_coframe_values_and_singularity():
    w1, w2 = j0_coframe(0.3 + 0.1j, 1.0, 4)
    assert np.allclose(w1, np.array([1.0, 1j, 1j, 1.0]), atol=1e-15)
    assert np.allclose(w2, np.array([1.0, -1j, 1j, -1.0]), atol=1e-15)
    with pytest.raises(SingularLocusError):
        j0_coframe(0.0, 0.0, 3)
    with pytest.raises(SingularLocusError):
        eta_coframe(1.0, 0.0, 3)


def test_twist_is_antilinear_on_coframe():
    rng = random.Random(41)
    for n in (2, 3, 5):
        for _ in range(10):
            w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            z = complex(rng.uniform(0.2, 1.2), rng.uniform(-1, 1))
            cw, cz = twist_C(w, z, n)
            jac = linear_map_jacobian(1.0 + 0j, cmath.exp(1j * math.pi / n))
            o1_img, o2_img = j0_coframe(cw, cz, n)
            o1, o2 = j0_coframe(w, z, n)
            assert np.max(np.abs(pullback(o1_img, jac) - np.conj(o2))) < 1e-12
            assert np.max(np.abs(pullback(o2_img, jac) - np.conj(o1))) < 1e-12


def test_homogeneity_motion_preserves_eta():
    rng = random.Random(43)
    for n in (2, 3, 4):
        for _ in range(10):
            w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            z = complex(rng.uniform(0.2, 1.2), rng.uniform(-1, 1))
            a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            b = complex(rng.uniform(0.3, 1.5), rng.uniform(-1, 1))
            fw, fz = apply_motion_F(a, b, n, w, z)
            bw = (b.conjugate() ** n) / (abs(b) ** (n - 1))
            jac = linear_map_jacobian(bw, b)
            e1_img, e2_img = eta_coframe(fw, fz, n)
            e1, e2 = eta_coframe(w, z, n)
            assert np.max(np.abs(pullback(e1_img, jac) - e1)) < 1e-12
            assert np.max(np.abs(pullback(e2_img, jac) - e2)) < 1e-12


def test_sphere_points_deterministic_unit():
    pts = sphere_points(3, 40)
    again = sphere_points(3, 40)
    assert pts == again
    assert pts[0] == (1.0, 0.0, 0.0) and pts[1] == (-1.0, 0.0, 0.0)
    for p in pts:
        assert abs(sum(x * x for x in p) - 1.0) < 1e-12
