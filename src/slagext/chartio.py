"""Chart serialization and mesh export.

All numeric payloads in JSON documents are base-10 decimal strings, so
documents are reproducible across platforms and reload to the exact same
binary values. Files are written atomically (temp file + rename).
"""
from __future__ import annotations

import json
import os
import tempfile
from itertools import chain
from typing import Sequence

import numpy as np

from .ambient import chart_point, sphere_points
from .engine import Chart, RadiusEstimate
from .errors import NonFiniteError, SchemaError
from .precision import (FLOAT64, Context, coefficient_array, context_named,
                        encode_real, finite_coefficients)
from .series import SigmaExpansion, TaylorPoly

SCHEMA_NAME = "slag-chart"
SCHEMA_VERSION = 1


def _decode_real(s, ctx: Context, what: str):
    """s as a real of ``ctx``; ``SchemaError`` naming the field ``what``
    for a string that is not a decimal number, ``NonFiniteError`` for an
    int past float64 range."""
    if not isinstance(s, (str, int, float)):
        raise SchemaError(f"expected a decimal string, got {type(s).__name__}")
    try:
        return ctx.real(s)
    except OverflowError:
        raise NonFiniteError(f"{what} is past float64 range") from None
    except ValueError:
        raise SchemaError(f"{what} is not a decimal number: {s!r}") from None


def _decode_terms(rows: list, ctx: Context) -> list:
    """The f_k of the term rows, each of one length: every entry decoded in
    one call to ``ctx.reals`` when every one is a decimal string, or at
    float64 a str, int or float, by exact type (not a bool); else, or if
    that call fails, entry by entry, as single values decode. A decimal
    string past float64 range that does not spell an infinity, which
    would load as one, raises ``NonFiniteError``; a NaN or an infinity
    spelled out (as ``serialize_chart`` writes them) loads as it is."""
    width, flat = len(rows[0]), list(chain.from_iterable(rows))
    kinds = set(map(type, flat))
    values = None
    if kinds <= {str} or ctx is FLOAT64 and kinds <= {str, int, float}:
        try:
            values = ctx.reals(flat)
        except (ValueError, OverflowError):
            pass  # entry by entry, which names the entry
    if values is None:
        values = [_decode_real(c, ctx, "chart term %d entry %d" % divmod(
            j, width)) for j, c in enumerate(flat)]
    coeffs = coefficient_array(values)
    if ctx is FLOAT64 and not finite_coefficients(coeffs):  # one test
        for j in np.flatnonzero(np.isinf(coeffs)).tolist():
            if isinstance(flat[j], str) and flat[j].strip().lstrip(
                    "+-").lower() not in ("inf", "infinity"):
                raise NonFiniteError("chart term %d entry %d is past float64"
                                     " range: %r" % (*divmod(j, width), flat[j]))
    return [TaylorPoly(coeffs[j:j + width]) for j in range(0, len(flat), width)]


def _fields(value, what: str, keys) -> dict:
    """``value`` as a JSON object that has every key in ``keys``."""
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be a JSON object")
    for key in keys:
        if key not in value:
            raise SchemaError(f"{what} is missing {key!r}")
    return value


def serialize_chart(chart: Chart) -> dict:
    # labelled from the chart's own scalars, whatever else is in the process
    c = chart.phi.terms[0].coeffs[0]
    prec = "float64" if isinstance(c, float) else f"mp{c.context.dps}"
    doc = {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "precision": prec,
        "n": chart.n,
        "branch": chart.branch,
        "K": chart.K,
        "D": chart.D,
        "frame": {
            "a_re": encode_real(chart.frame.a.real),
            "a_im": encode_real(chart.frame.a.imag),
            "theta": encode_real(chart.frame.theta),
        },
        # the expansion's strings, shared by the charts that share it,
        # copied so that an edit of the document cannot reach them
        "terms": list(map(list, chart.phi.decimal_rows)),
    }
    if chart.center_param is not None:
        doc["center_param"] = encode_real(chart.center_param)
    if chart.radius is not None:
        doc["radius"] = {
            "C": encode_real(chart.radius.C),
            "M": encode_real(chart.radius.M),
            "rho": encode_real(chart.radius.rho_sigma),
            "fit": encode_real(chart.radius.fit_quality),
        }
    else:
        doc["radius"] = None
    return doc


def deserialize_chart(doc: dict) -> Chart:
    from .arcs import Frame

    _fields(doc, "chart document", ())
    if doc.get("schema") != SCHEMA_NAME:
        raise SchemaError(f"not a chart document: schema={doc.get('schema')!r}")
    if doc.get("version") != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported chart schema version {doc.get('version')!r}")
    _fields(doc, "chart document", ("n", "branch", "K", "D", "frame", "terms"))
    try:
        ctx = context_named(str(doc.get("precision", "float64")))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    try:
        n, K, D, branch = (int(doc[k]) for k in ("n", "K", "D", "branch"))
    except (TypeError, ValueError):
        raise SchemaError("chart n, K, D and branch must be integers") from None
    cap = D - 2 * K
    if cap < 0:
        raise SchemaError("chart document has D < 2K")
    raw_terms = doc["terms"]
    if not isinstance(raw_terms, list) or len(raw_terms) != K + 1:
        raise SchemaError("chart document terms do not match K")
    for row in raw_terms:
        if not isinstance(row, list):
            raise SchemaError("chart document term is not a list")
        if len(row) != cap + 1:
            raise SchemaError("chart document term length does not match D-2K")
    terms = _decode_terms(raw_terms, ctx)
    fr = _fields(doc["frame"], "chart frame", ("a_re", "a_im", "theta"))
    a_re, a_im, theta = (_decode_real(fr[key], ctx, f"chart frame {key}")
                         for key in ("a_re", "a_im", "theta"))
    if not finite_coefficients(coefficient_array([a_re, a_im, theta])):
        raise NonFiniteError("chart frame holds a NaN or an infinity")
    frame = Frame(a=ctx.make_complex(a_re, a_im), theta=theta)
    radius = None
    if doc.get("radius") is not None:
        # M and rho are inf for a tail that is zero, and C may round to inf
        rd = _fields(doc["radius"], "chart radius", ("C", "M", "rho", "fit"))
        radius = RadiusEstimate(*(
            float(_decode_real(rd[key], FLOAT64, f"chart radius {key}"))
            for key in ("C", "M", "rho", "fit")))
    center = doc.get("center_param")
    return Chart(
        n=n, branch=branch, frame=frame,
        phi=SigmaExpansion(n=n, terms=tuple(terms)), radius=radius,
        center_param=None if center is None else float(
            _decode_real(center, FLOAT64, "chart center_param")),
    )


def atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, doc) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from None


def dump_chart(chart: Chart, path: str) -> None:
    write_json(path, serialize_chart(chart))


def load_chart(path: str) -> Chart:
    return deserialize_chart(read_json(path))


def _grid(lo: float, hi: float, count: int) -> list:
    if count < 2:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + j * step for j in range(count)]


def _mesh_grid(resolution: int, sigma_max: float):
    """The export grid |t| <= 2 sigma_max, 0 <= sigma <= sigma_max as two
    flat float64 arrays, t-outer and sigma-inner."""
    w = float(2 * sigma_max)
    T, S = np.meshgrid(_grid(-w, w, resolution),
                       _grid(0.0, float(sigma_max), resolution),
                       indexing="ij")
    return T.ravel(), S.ravel()


def _text_lines(coords, template: str) -> str:
    """One line per element of the complex arrays in ``coords``: its real
    and imaginary parts, coordinate by coordinate, each printed with
    ``%.17g``, through ``template``, which holds one ``%s`` per part.

    Each distinct number is printed once. Numbers are told apart by their
    bits, not by ``==``: -0.0 equals 0.0 but prints apart from it, and NaN
    equals nothing, not even itself (every NaN prints ``nan``)."""
    parts = np.stack([p for z in coords for p in (z.real, z.imag)], axis=-1)
    bits, where = np.unique(parts.ravel().view(np.int64), return_inverse=True)
    text = np.array(["%.17g" % x for x in bits.view(np.float64).tolist()],
                    dtype=object)
    return ((template + "\n") * len(parts)) % tuple(text[where].tolist())


def reduced_mesh_text(charts: Sequence[Chart], resolution: int,
                      sigma_max: float) -> str:
    """OBJ quad mesh of the reduced surfaces (t, sigma) -> (w, zeta).

    Vertex records carry four values: Re w, Im w, Re zeta, with Im zeta as
    the optional fourth component. One (resolution x resolution) grid per
    chart over |t| <= 2 sigma_max, faces local to their chart.
    """
    if resolution < 2:
        raise ValueError("mesh resolution must be >= 2")
    T, S = _mesh_grid(resolution, sigma_max)
    parts = ["# reduced chart mesh: Re w, Im w, Re zeta / Im zeta\n"]
    faces = []
    base, r = 1, resolution
    for chart in charts:
        wv, zv = chart.reduced_map.point(T, S)
        parts.append(_text_lines((wv, zv), "v %s %s %s %s"))
        for i in range(r - 1):
            # the quad whose corner with the lowest index is vertex v
            faces += [f"f {v} {v + r} {v + r + 1} {v + 1}\n"
                      for v in range(base + i * r, base + (i + 1) * r - 1)]
        base += r * r
    return "".join(parts + faces)


def embedded_cloud_text(charts: Sequence[Chart], resolution: int,
                        sigma_max: float, directions: int = 6) -> str:
    """CSV point cloud of ambient chart points over a (t, sigma, u) grid
    with |t| <= 2 sigma_max.

    After a header line, each line holds the 2n+2 real coordinates of one
    point.
    """
    if not charts:
        raise ValueError("no charts to export")
    n = charts[0].n
    if any(c.n != n for c in charts):
        raise ValueError("charts mix different n")
    parts = [",".join(f"{xy}{k}" for k in range(n + 1) for xy in "xy")
             + "\n"]
    template = ",".join(["%s"] * (2 * n + 2))
    T, S = _mesh_grid(resolution, sigma_max)
    dirs = sphere_points(n, directions)
    for chart in charts:
        # one array call per chart; the trailing direction axis makes the
        # ravel order t, then sigma, then u
        p = chart_point(chart, T, S, dirs)
        parts.append(_text_lines((z.ravel() for z in p.z), template))
    return "".join(parts)


def export_mesh(charts: Sequence[Chart], mode: str, resolution: int,
                sigma_max: float, path: str, directions: int = 6) -> str:
    """Write the mesh/point-cloud file for the charts; returns the path."""
    if mode == "reduced":
        text = reduced_mesh_text(charts, resolution, sigma_max)
    elif mode == "embedded":
        text = embedded_cloud_text(charts, resolution, sigma_max,
                                   directions=directions)
    else:
        raise ValueError(f"unknown mesh mode {mode!r}")
    atomic_write_text(path, text)
    return path
