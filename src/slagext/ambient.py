"""Ambient-space geometry: the cone parametrization, group actions,
invariant planes, the momentum map, and numeric calibration residuals.

Ambient coordinates are (z_0, ..., z_n) in C^(n+1), with z_0 the
distinguished axis fixed by the SO(n) action on the last n coordinates.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence, Tuple

import numpy as np

from .engine import Chart
from .errors import RankError, SingularLocusError
from .precision import complex_product


@dataclass(frozen=True)
class AmbientPoint:
    """A point of C^(n+1), or with complex128 array coordinates of one
    shape, one point per element."""

    z: tuple

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(
            c.astype(np.complex128, copy=False) if isinstance(c, np.ndarray)
            else complex(c) for c in self.z))

    @property
    def dim(self) -> int:
        """n, the number of rotating coordinates."""
        return len(self.z) - 1


def phi_map(w: complex, zeta: complex, u) -> AmbientPoint:
    """(w, zeta, u) -> (w, zeta u_1, ..., zeta u_n); 2-to-1 under
    (zeta, u) -> (-zeta, -u). w and zeta may be arrays of one shape, and u
    one unit vector or an (m, n) stack of them, which appends an axis of
    length m to the coordinates. Each element of the result equals the
    scalar map at its (w, zeta, u) bit for bit."""
    uu = np.array(u, dtype=float)
    if not np.all(np.abs(np.sqrt(np.sum(uu * uu, axis=-1)) - 1.0) <= 1e-12):
        raise ValueError("u must be a unit vector (|u| within 1e-12 of 1)")
    if uu.ndim == 2:
        zeta = np.asarray(zeta)[..., None]
        w = np.broadcast_to(np.asarray(w)[..., None], zeta.shape[:-1]
                            + (len(uu),))
        return AmbientPoint((w,) + tuple(complex_product(zeta, x)
                                         for x in uu.T))
    if not isinstance(zeta, np.ndarray):
        w, zeta = complex(w), complex(zeta)
    return AmbientPoint((w,) + tuple(complex_product(zeta, x)
                                     for x in uu.tolist()))


def chart_point(chart: Chart, t: float, sigma: float, u) -> AmbientPoint:
    """Ambient point of the chart surface at (t, sigma, u): graph lift,
    branch twist, then the inverse of the normalizing motion. t and sigma
    may be float64 arrays of one shape, and u an (m, n) stack of unit
    vectors (see ``phi_map``); all the points come from one jet
    evaluation."""
    w, zeta = chart.reduced_map.point(t, sigma)
    return phi_map(w, zeta, u)


def lambda_star(p: AmbientPoint, j: int, n: int) -> AmbientPoint:
    """Twist the rotating coordinates by e^(i j pi / n).

    j is reduced mod 2n first, so j and j + 2n give identical output.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    jj = j % (2 * n)
    if jj == 0:
        return p
    if jj == n:
        phase = complex(-1.0)
    else:
        phase = cmath.exp(1j * math.pi * jj / n)
    return AmbientPoint((p.z[0],) + tuple(phase * c for c in p.z[1:]))


def group_motion(p: AmbientPoint, a: complex, theta: float,
                 n: int) -> AmbientPoint:
    """(z_0, z_k) -> (e^(i n theta) z_0 + a, e^(-i theta) z_k).

    These motions commute with the SO(n) action and act on the fixed
    axis as the Euclidean isometry z_0 -> e^(i n theta) z_0 + a.
    """
    w_phase = cmath.exp(1j * n * theta)
    z_phase = cmath.exp(-1j * theta)
    return AmbientPoint((w_phase * p.z[0] + complex(a),)
                        + tuple(z_phase * c for c in p.z[1:]))


def momentum_so_n(p: AmbientPoint) -> np.ndarray:
    """Antisymmetric n x n matrix (x_i y_j - y_i x_j) over the rotating
    coordinates; vanishes exactly on rank-one configurations zeta*u. For
    a point with array coordinates the matrix axes come first."""
    x = np.array([c.real for c in p.z[1:]])
    y = np.array([c.imag for c in p.z[1:]])
    return x[:, None] * y[None] - y[:, None] * x[None]


# ---------------------------------------------------------------------------
# calibration residuals


@dataclass(frozen=True)
class SlagResidual:
    omega_res: float
    upsilon_res: float
    phase: float


def slag_residual(frame) -> SlagResidual:
    """Symplectic and volume-form residuals of a tangent frame, or of each
    frame of a stack.

    The columns of ``frame`` are tangent vectors v_0..v_m of a sheet at
    one point, so the frame must be square, (n+1) x (n+1), and

        omega_res   = max_{i<j} |Im <v_i, v_j>|  (Hermitian pairing)
        upsilon_res = |Im det [v_0 ... v_m]|
        phase       = Re det / |det|

    A genuinely calibrated sheet has both residuals 0 and phase +-1. A
    non-finite frame gives NaN residuals and phase, without entering det;
    a degenerate finite frame raises ``RankError``. A stack of frames,
    shape (..., n+1, n+1), gives arrays of its leading shape, one element
    per frame; a single frame gives floats.
    """
    m = np.asarray(frame, dtype=complex)
    rows, cols = m.shape[-2:]
    if rows != cols:
        raise RankError(
            f"need {rows} parameters for a frame in C^{rows}, got {cols}"
        )
    finite = np.all(np.isfinite(m), axis=(-2, -1))
    # a non-finite frame is scored as the identity, then reads NaN
    m = np.where(finite[..., None, None], m, np.eye(cols))
    scale = np.prod(np.linalg.norm(m, axis=-2), axis=-1)
    det = np.linalg.det(m)
    if np.any((scale == 0.0) | (np.abs(det) < 1e-12 * scale)):
        raise RankError("degenerate tangent frame (det ~ 0)")
    gram = np.swapaxes(m.conj(), -1, -2) @ m
    pairs = gram.imag[(..., *np.triu_indices(cols, 1))]
    fields = [np.where(finite, v, math.nan) for v in (
        np.max(np.abs(pairs), axis=-1, initial=0.0),
        np.abs(det.imag),
        det.real / np.abs(det),
    )]
    if m.ndim == 2:
        fields = map(float, fields)
    return SlagResidual(*fields)


def _sphere_from_angles(angles: Sequence[float]):
    """Hyperspherical parametrization of S^(n-1): the point u, and the
    rows du/da_i of its derivatives in the angles. Empty angles give
    u = (1,) and no rows."""
    u, du = np.ones(1), np.zeros((0, 1))
    for a in angles:
        c, s = math.cos(a), math.sin(a)
        du = np.vstack([np.hstack([du * c, np.zeros((len(du), 1))]),
                        np.append(-s * u, c)])
        u = np.append(u * c, s)
    return u, du


def chart_frame(chart: Chart, t: float, sigma: float,
                angles: Sequence[float]) -> np.ndarray:
    """Tangent frame of the chart sheet at (t, sigma, u(angles)), u in
    hyperspherical angles: the columns d/dt = (w_t, zeta_t u), d/dsigma =
    (w_sigma, zeta_sigma u) and d/da_i = (0, zeta du/da_i).

    t and sigma may be float64 arrays of one shape; the frames then stack
    on leading axes of that shape, from one jet evaluation.
    """
    if len(angles) != chart.n - 1:
        raise ValueError("expected n-1 sphere angles")
    u, du = _sphere_from_angles(angles)
    (_, zeta), (w_t, w_s, z_t, z_s) = chart.reduced_map.point_and_jacobian(
        t, sigma)
    # per parameter: its w-derivative, and the factors zeta' and u' of
    # its zeta u derivative
    dw = np.stack(np.broadcast_arrays(w_t, w_s, *[0j] * len(du)), axis=-1)
    dz = np.stack(np.broadcast_arrays(z_t, z_s, *[zeta] * len(du)), axis=-1)
    dirs = np.vstack([u, u, du]).T
    return np.concatenate([dw[..., None, :], dz[..., None, :] * dirs],
                          axis=-2)


# ---------------------------------------------------------------------------
# invariant planes


@dataclass(frozen=True)
class PlaneP:
    """The special Lagrangian plane with axis phase e^(-i n psi) and
    rotating phase e^(i psi); psi is kept mod pi."""

    psi: float
    n: int
    basis: tuple

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the plane inside R^(2n+2)."""
        cols = []
        for b in self.basis:
            cols.append([x for c in b for x in (c.real, c.imag)])
        B = np.array(cols).T
        return B @ B.T


def plane_P(psi: float, n: int) -> PlaneP:
    if n < 2:
        raise ValueError("n must be >= 2")
    psi = float(psi) % math.pi
    a0 = cmath.exp(-1j * n * psi)
    ak = cmath.exp(1j * psi)
    basis = []
    basis.append((a0,) + (0j,) * n)
    for k in range(1, n + 1):
        v = [0j] * (n + 1)
        v[k] = ak
        basis.append(tuple(v))
    return PlaneP(psi=psi, n=n, basis=tuple(basis))


def planes_through_line(beta: float, n: int) -> list:
    """The n invariant planes whose axis contains the line e^(i beta) R.

    Axis phases solve -n psi = beta mod pi, so psi = (-beta + k pi)/n.
    """
    return [plane_P((-float(beta) + k * math.pi) / n, n) for k in range(n)]


def planes_same(p1: PlaneP, p2: PlaneP, tol: float = 1e-12) -> bool:
    if p1.n != p2.n:
        return False
    return bool(np.max(np.abs(p1.projector() - p2.projector())) <= tol)


def chart_tangent_plane(chart: Chart) -> PlaneP:
    """Tangent plane of the chart sheet along the arc at its center."""
    return plane_P(chart.frame.theta + chart.branch * math.pi / chart.n,
                   chart.n)


# ---------------------------------------------------------------------------
# the J0 layer on M0 = C^2 minus {zeta = 0}


def _covector(cw: complex, cwbar: complex, cz: complex,
              czbar: complex) -> np.ndarray:
    """Assemble a complex covector on R^4 = (x_w, y_w, x_z, y_z) from
    coefficients of dw, dwbar, dzeta, dzetabar."""
    return np.array([
        cw + cwbar,
        1j * cw - 1j * cwbar,
        cz + czbar,
        1j * cz - 1j * czbar,
    ], dtype=complex)


def j0_coframe(w: complex, zeta: complex, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The defining coframe:

        omega_1 = dw    + i zetabar^(n-1) dzetabar / |zeta|^(n-1)
        omega_2 = dwbar + i zeta^(n-1)    dzeta    / |zeta|^(n-1)

    Undefined on the line zeta = 0; the structure does not extend
    continuously across it.
    """
    zeta = complex(zeta)
    if zeta == 0:
        raise SingularLocusError("coframe undefined on the line zeta = 0")
    c = (zeta.conjugate() ** (n - 1)) / (abs(zeta) ** (n - 1))
    omega1 = _covector(1.0, 0.0, 0.0, 1j * c)
    omega2 = _covector(0.0, 1.0, 1j * c.conjugate(), 0.0)
    return omega1, omega2


def eta_coframe(w: complex, zeta: complex, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The motion-invariant (1,0)-forms:

        eta_1 = |zeta|^(n-1)/zetabar^n dw    + i dzetabar/zetabar
        eta_2 = |zeta|^(n-1)/zeta^n    dwbar + i dzeta/zeta
    """
    zeta = complex(zeta)
    if zeta == 0:
        raise SingularLocusError("coframe undefined on the line zeta = 0")
    q = (abs(zeta) ** (n - 1)) / (zeta.conjugate() ** n)
    eta1 = _covector(q, 0.0, 0.0, 1j / zeta.conjugate())
    eta2 = _covector(0.0, q.conjugate(), 1j / zeta, 0.0)
    return eta1, eta2


def linear_map_jacobian(bw: complex, bz: complex) -> np.ndarray:
    """Real 4x4 Jacobian of (w, zeta) -> (bw w + const, bz zeta)."""
    J = np.zeros((4, 4))
    J[0, 0], J[0, 1] = bw.real, -bw.imag
    J[1, 0], J[1, 1] = bw.imag, bw.real
    J[2, 2], J[2, 3] = bz.real, -bz.imag
    J[3, 2], J[3, 3] = bz.imag, bz.real
    return J


def pullback(covector: np.ndarray, jacobian: np.ndarray) -> np.ndarray:
    return covector @ jacobian


def motion_F_factors(b: complex, n: int) -> Tuple[complex, complex]:
    """Linear factors (on w and on zeta) of the homogeneity motion F_{a,b}."""
    b = complex(b)
    if b == 0:
        raise ValueError("b must be nonzero")
    return (b.conjugate() ** n) / (abs(b) ** (n - 1)), b


def apply_motion_F(a: complex, b: complex, n: int, w: complex,
                   zeta: complex) -> Tuple[complex, complex]:
    fw, fz = motion_F_factors(b, n)
    return fw * complex(w) + complex(a), fz * complex(zeta)


def twist_C(w: complex, zeta: complex, n: int) -> Tuple[complex, complex]:
    """C(w, zeta) = (w, e^(i pi/n) zeta); J0-antilinear."""
    return complex(w), cmath.exp(1j * math.pi / n) * complex(zeta)


# ---------------------------------------------------------------------------
# deterministic sphere sampling


def _small_primes(count: int) -> list:
    primes = []
    cand = 2
    while len(primes) < count:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    return primes


def _van_der_corput(index: int, base: int) -> float:
    x, denom = 0.0, 1.0
    while index:
        index, rem = divmod(index, base)
        denom *= base
        x += rem / denom
    return x


def sphere_points(n: int, count: int) -> list:
    """Deterministic sample of S^(n-1): the 2n signed axes first, then a
    low-discrepancy Gaussian construction normalized to the sphere."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = []
    for k in range(n):
        for sgn in (1.0, -1.0):
            e = [0.0] * n
            e[k] = sgn
            pts.append(tuple(e))
    primes = _small_primes(n)
    nd = NormalDist()
    idx = 1
    while len(pts) < count:
        g = [nd.inv_cdf(min(max(_van_der_corput(idx, p), 1e-12), 1 - 1e-12))
             for p in primes]
        r = math.sqrt(sum(x * x for x in g))
        if r > 1e-9:
            pts.append(tuple(x / r for x in g))
        idx += 1
    return pts[:count]
