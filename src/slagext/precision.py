"""Scalar precision contexts.

Series and chart evaluation are written generically over a small scalar
interface so the same code runs in float64 or in mpmath arbitrary precision.
Double precision is the default; the high-order residual-decay and overlap
comparisons need signals far below 1e-16 and use an mpmath context.

A context converts external representations (ints, floats, decimal strings)
into its scalar type and supplies the few transcendental functions the
geometry needs. Complex scalars are built with ``make_complex`` and follow
the native ``.real`` / ``.imag`` / ``.conjugate()`` protocol, which float,
complex, mpf and mpc all share.

The CLI picks its context from the SLAG_PRECISION environment variable:
``float64`` (default) or ``mp<digits>``, e.g. ``mp50``.
"""
from __future__ import annotations

import math
import os
from typing import Any, Union

import mpmath
import numpy as np

Scalar = Any
CScalar = Any


class FloatContext:
    """IEEE double scalars backed by the math module."""

    name = "float64"
    eps = 2.220446049250313e-16

    def real(self, x: Union[int, float, str]) -> float:
        return float(x)

    def make_complex(self, re, im) -> complex:
        """``complex(re, im)``; elementwise over numpy float64 arrays."""
        if isinstance(re, np.ndarray):
            return re + 1j * im
        return complex(re, im)

    def pi(self) -> float:
        return math.pi

    def sqrt(self, x):
        return math.sqrt(x)

    def sin(self, x):
        return math.sin(x)

    def cos(self, x):
        return math.cos(x)

    def atan2(self, y, x):
        return math.atan2(y, x)

    def exp_i(self, theta) -> complex:
        return complex(math.cos(theta), math.sin(theta))


class MPContext:
    """mpmath scalars at a fixed working precision.

    Each context computes in its own ``mpmath.MPContext``, and every scalar
    it makes belongs to that mpmath context, whose precision its arithmetic
    keeps. So contexts of different precision can live in one process, and
    none of them reads or writes mpmath's process-wide ``mpmath.mp``.
    """

    def __init__(self, dps: int):
        if dps < 16:
            raise ValueError("mp context needs at least 16 digits")
        self.dps = int(dps)
        self.name = f"mp{self.dps}"
        self._mp = mpmath.MPContext()
        self._mp.dps = self.dps
        self.eps = float(self._mp.mpf(10) ** (1 - self.dps))

    def real(self, x):
        return self._mp.mpf(x)

    def make_complex(self, re, im):
        return self._mp.mpc(re, im)

    def pi(self):
        return +self._mp.pi

    def sqrt(self, x):
        return self._mp.sqrt(x)

    def sin(self, x):
        return self._mp.sin(x)

    def cos(self, x):
        return self._mp.cos(x)

    def atan2(self, y, x):
        return self._mp.atan2(y, x)

    def exp_i(self, theta):
        return self._mp.mpc(self._mp.cos(theta), self._mp.sin(theta))


Context = Union[FloatContext, MPContext]

FLOAT64 = FloatContext()


def mp_context(dps: int = 50) -> MPContext:
    """An ``MPContext``, with ``mpmath.mp`` set to the same precision for
    callers that compute with mpmath directly. Nothing in the package
    reads ``mpmath.mp``, and this is the only place that writes it."""
    ctx = MPContext(dps)
    mpmath.mp.dps = ctx.dps
    return ctx


def context_named(spec: str) -> Context:
    """Context for a precision name: ``float64`` or ``mp<digits>``."""
    spec = spec.strip().lower()
    if spec == "float64":
        return FLOAT64
    if spec.startswith("mp"):
        try:
            digits = int(spec[2:])
        except ValueError:
            raise ValueError(f"bad precision name: {spec!r}") from None
        return MPContext(digits)
    raise ValueError(f"bad precision name: {spec!r}")


def from_env() -> Context:
    """Context selected by SLAG_PRECISION (``float64`` or ``mp<digits>``);
    float64 when it is unset or blank."""
    spec = os.environ.get("SLAG_PRECISION", "").strip()
    if not spec:
        return FLOAT64
    return context_named(spec)
