"""Ambient layer tests: cone map, group actions, planes, residuals, J0."""
from __future__ import annotations

import cmath
import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_flat_potential
from slagext.ambient import (
    AmbientPoint,
    apply_motion_F,
    chart_frame,
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
    planes_same,
    planes_through_line,
    pullback,
    slag_residual,
    sphere_points,
    twist_C,
)
from slagext.arcs import Frame, graph_arc, unit_circle_arc
from slagext.chartio import deserialize_chart, serialize_chart
from slagext.engine import Chart, ReducedChartMap, extend_arc, extend_series
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
        rec = slag_residual(np.transpose(plane.basis))
        assert rec.omega_res == 0.0
        assert rec.upsilon_res == 0.0
        assert rec.phase == 1.0
    # a plane's frame is its basis at every point, so tilted planes are
    # held to rounding too
    for psi in (0.7, 1.3, 2.9):
        rec = slag_residual(np.transpose(plane_P(psi, 3).basis))
        assert rec.omega_res <= 1e-15 and rec.upsilon_res <= 1e-15
        assert abs(abs(rec.phase) - 1.0) <= 1e-15


def test_slag_residual_degenerate_frame():
    collapsed = np.array([[1, 0, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    with pytest.raises(RankError):
        slag_residual(collapsed)
    with pytest.raises(RankError):
        slag_residual(np.eye(3, 2, dtype=complex))


def test_slag_residual_on_a_stack_equals_each_frame():
    ch = extend_arc(unit_circle_arc(), 0.3, n=3, K=4, D=16, with_radius=False)
    T, S = np.meshgrid([-0.1, 0.0, 0.05], [0.02, 0.1], indexing="ij")
    frames = chart_frame(ch, T, S, [0.7, -0.3])
    frames[1, 0, 2, 1] = complex(math.nan, 0.0)
    rec = slag_residual(frames)
    for field in ("omega_res", "upsilon_res", "phase"):
        arr = getattr(rec, field)
        assert arr.shape == T.shape
        for idx in np.ndindex(T.shape):
            one = getattr(slag_residual(frames[idx]), field)
            assert type(one) is float
            assert (arr[idx] == one) or (math.isnan(one) and idx == (1, 0))
        assert np.isnan(arr[1, 0])
    # one degenerate frame in the stack fails the whole call
    frames[2, 1] = np.array([[1, 0, 0, 0]] * 4, dtype=complex)
    with pytest.raises(RankError):
        slag_residual(frames)
    with pytest.raises(RankError):
        slag_residual(np.ones((2, 4, 3), dtype=complex))


def _moved(frame, theta, n):
    """The frame pushed forward by a group motion: its linear part, which
    is the motion with a = 0, applied to each column."""
    return np.column_stack([group_motion(AmbientPoint(tuple(v)), 0, theta,
                                         n).z for v in frame.T])


def test_slag_residual_motion_invariance():
    ch = extend_arc(unit_circle_arc(), 0.0, n=2, K=6, D=24)
    for at in ([0.05, 0.03, 0.4], [-0.1, 0.02, 2.0]):
        frame = chart_frame(ch, at[0], at[1], at[2:])
        r1 = slag_residual(frame)
        r2 = slag_residual(_moved(frame, 0.9, 2))
        assert abs(r1.omega_res - r2.omega_res) <= 1e-12
        assert abs(r1.upsilon_res - r2.upsilon_res) <= 1e-12


def _sphere(angles):
    """Hyperspherical point of S^(n-1), written out independently."""
    u = [1.0]
    for a in angles:
        u = [x * math.cos(a) for x in u] + [math.sin(a)]
    return tuple(u)


def _difference_column(chart, at, i, step=1e-3):
    """d/d(at[i]) of the chart point by centered differences at two steps,
    Richardson-extrapolated (error O(step^4))."""
    def point(params):
        return np.array(chart_point(chart, params[0], params[1],
                                    _sphere(params[2:])).z)

    def centered(d):
        hi, lo = list(at), list(at)
        hi[i] += d
        lo[i] -= d
        return (point(hi) - point(lo)) / (2 * d)

    return (4.0 * centered(step / 2) - centered(step)) / 3.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
       K=st.integers(1, 4), branch=st.integers(0, 3),
       t=st.floats(-0.1, 0.1), sigma=st.floats(0.02, 0.1),
       angles=st.lists(st.floats(-1.2, 1.2), min_size=3, max_size=3))
def test_chart_frame_matches_differences_of_chart_point(seed, n, K, branch,
                                                        t, sigma, angles):
    rng = random.Random(seed)
    chart = Chart(
        n=n, branch=branch % n,
        frame=Frame(a=complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    theta=rng.uniform(0, 2 * math.pi)),
        phi=extend_series(random_flat_potential(rng, 2 * K + 8), n, K))
    at = [t, sigma] + angles[: n - 1]
    frame = chart_frame(chart, t, sigma, at[2:])
    assert frame.shape == (n + 1, n + 1)
    for i in range(n + 1):
        want = _difference_column(chart, at, i)
        assert (np.linalg.norm(frame[:, i] - want)
                <= 1e-8 * np.linalg.norm(want))
    # a gradient graph: omega vanishes up to rounding
    assert slag_residual(frame).omega_res <= 1e-15


def test_chart_frame_on_arrays_stacks_the_scalar_frames():
    ch = extend_arc(graph_arc(["0", "0", "0.5", "0.1"]), 0.1, n=3, K=4,
                    D=16, branch=2, with_radius=False)
    T, S = np.meshgrid([-0.1, 0.0, 0.05], [0.02, 0.1], indexing="ij")
    frames = chart_frame(ch, T, S, [0.7, -0.3])
    assert frames.shape == T.shape + (4, 4)
    for idx in np.ndindex(T.shape):
        one = chart_frame(ch, float(T[idx]), float(S[idx]), [0.7, -0.3])
        assert np.allclose(frames[idx], one, rtol=1e-15, atol=1e-17)
    with pytest.raises(ValueError):
        chart_frame(ch, 0.0, 0.05, [0.7])


def test_chart_residuals_shrink_with_order():
    arc = unit_circle_arc()
    vals = {}
    for K in (1, 4, 10):
        ch = extend_arc(arc, 0.0, n=2, K=K, D=max(4 * K, 12), with_radius=False)
        worst = 0.0
        for at in ([0.05, 0.05, 0.3], [-0.08, 0.04, 1.2]):
            rec = slag_residual(chart_frame(ch, at[0], at[1], at[2:]))
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
