"""Shared helpers for the test suite."""
from __future__ import annotations

import dataclasses
import math
import os
import random
import sys
from fractions import Fraction

# float64 products go through numpy's correlate, which calls OpenBLAS's
# ddot, whose summation order is that of the kernel OpenBLAS picks for the
# CPU when it loads. The frozen float64 digests are those of the Haswell
# kernel, which every x86-64 CPU with AVX2 runs; the variable is read only
# when numpy loads OpenBLAS, so it is set before numpy is imported.
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could "
                       "pin OPENBLAS_CORETYPE; the frozen float64 digests "
                       "would depend on the CPU's OpenBLAS kernel")
os.environ["OPENBLAS_CORETYPE"] = "Haswell"

from hypothesis import settings

from slagext import engine
from slagext.arcs import graph_arc
from slagext.engine import extend_arc
from slagext.series import SigmaExpansion, TaylorPoly, poly_from

# the deep run of the fused multiply-add property, of the precision
# entry rule, of the jet's kept t-stage, of the mp residual sweep, of the
# shared branch solve, of the one-context rule and of the circle locus on
# one branch, in their own CI step: pytest tests/test_series.py
# tests/test_precision.py tests/test_engine.py -k "fused_muladd or
# enter_an_mp_chart or kept_t_stage or mp_residual_sweep or
# branch_charts_share or one_context_per or exactly_one_branch"
# --hypothesis-profile=deep. All but the first take a tenth of the
# profile's examples, as each of their examples builds mp jets or charts,
# and the last three a hundredth, as each builds up to 12, runs two mp
# recursions or projects onto up to 6 branch charts.
settings.register_profile("deep", max_examples=20000)


def random_flat_potential(rng: random.Random, cap: int, scale: float = 0.2) -> TaylorPoly:
    """Random admissible potential: vanishing value, slope, and curvature at
    0 (the normalized-arc convention), damped enough that arctan/tan
    compositions stay tame."""
    coeffs = [0.0, 0.0, 0.0]
    damp = 1.0
    for _ in range(3, cap + 1):
        damp *= scale
        coeffs.append(rng.uniform(-1.0, 1.0) * damp)
    return poly_from(coeffs, cap)


def exact_value(x) -> Fraction:
    """The exact rational value of a float or a finite mpf."""
    if isinstance(x, float):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    return Fraction((-1) ** sign * int(man)) * Fraction(2) ** int(exp)


def chart_with_nan_in_f3():
    """A graph-arc chart (n=3, K=4, D=16) with one NaN coefficient in f_3."""
    ch = extend_arc(graph_arc(["0", "0", "0.5", "0.1"]), 0.0, n=3, K=4,
                    D=16, with_radius=False)
    terms = list(ch.phi.terms)
    coeffs = list(terms[3].coeffs)
    coeffs[2] = math.nan
    terms[3] = TaylorPoly(tuple(coeffs))
    return dataclasses.replace(
        ch, phi=SigmaExpansion(n=ch.n, terms=tuple(terms)))


def count_solves(monkeypatch) -> list:
    """The n of every ``engine.extend_series`` call from here on."""
    calls, solve = [], engine.extend_series

    def counted(f0, n, K):
        calls.append(n)
        return solve(f0, n, K)

    monkeypatch.setattr(engine, "extend_series", counted)
    return calls
