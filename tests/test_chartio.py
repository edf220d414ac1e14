"""Serialization round trips, schema guards, mesh export formats."""
from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slagext.arcs import graph_arc, unit_circle_arc
from slagext.chartio import (
    _text_lines,
    deserialize_chart,
    embedded_cloud_text,
    encode_real,
    export_mesh,
    load_chart,
    reduced_mesh_text,
    serialize_chart,
)
from slagext.engine import Chart, extend_arc
from slagext.errors import NonFiniteError, SchemaError
from slagext import precision
from slagext.precision import (MPContext, RawSlot, complex_array,
                               context_named, mp_context)
from slagext.series import TaylorPoly, poly_from, poly_mul
from conftest import random_flat_potential


def _charts_equal(a, b):
    if (a.n, a.branch, a.K, a.D) != (b.n, b.branch, b.K, b.D):
        return False
    if a.frame.a != b.frame.a or a.frame.theta != b.frame.theta:
        return False
    for fa, fb in zip(a.phi.terms, b.phi.terms):
        if fa.coeffs != fb.coeffs:
            return False
    return True


def test_flat_chart_round_trip():
    ch = extend_arc(graph_arc(["0"]), 0.0, n=2, K=3, D=12)
    back = deserialize_chart(json.loads(json.dumps(serialize_chart(ch))))
    assert _charts_equal(ch, back)
    assert back.radius == ch.radius
    assert back.center_param == ch.center_param


def test_random_chart_round_trips():
    from slagext.engine import Chart, extend_series
    from slagext.arcs import Frame

    rng = random.Random(20240817)
    for _ in range(30):
        n = rng.randrange(2, 6)
        K = rng.randrange(1, 5)
        f0 = random_flat_potential(rng, 2 * K + rng.randrange(0, 7))
        ch = Chart(
            n=n, branch=rng.randrange(n),
            frame=Frame(a=complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                        theta=rng.uniform(0, 6.28)),
            phi=extend_series(f0, n, K),
            center_param=rng.uniform(-1, 1),
        )
        back = deserialize_chart(json.loads(json.dumps(serialize_chart(ch))))
        assert _charts_equal(ch, back)


@given(
    tail=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64,
                  min_value=-10.0, max_value=10.0),
        min_size=3, max_size=9),
    n=st.integers(min_value=2, max_value=5),
    K=st.integers(min_value=1, max_value=3),
    a_re=st.floats(allow_nan=False, allow_infinity=False, min_value=-5,
                   max_value=5),
    theta=st.floats(allow_nan=False, allow_infinity=False, min_value=0,
                    max_value=6.28),
)
@settings(max_examples=40, deadline=None)
def test_round_trip_property(tail, n, K, a_re, theta):
    from slagext.engine import Chart, extend_series
    from slagext.arcs import Frame

    cap = max(len(tail) + 2, 2 * K)
    f0 = poly_from([0.0, 0.0, 0.0] + tail, cap=cap)
    ch = Chart(n=n, branch=0, frame=Frame(a=complex(a_re, -a_re),
                                          theta=theta),
               phi=extend_series(f0, n, K))
    back = deserialize_chart(json.loads(json.dumps(serialize_chart(ch))))
    assert _charts_equal(ch, back)


def test_round_trip_through_file(tmp_path):
    from slagext.chartio import dump_chart

    ch = extend_arc(unit_circle_arc(), 0.4, n=3, K=4, D=16, branch=2)
    path = tmp_path / "chart.json"
    dump_chart(ch, str(path))
    assert _charts_equal(ch, load_chart(str(path)))


def test_truncated_document_rejected():
    ch = extend_arc(graph_arc(["0", "0", "0.5"]), 0.0, n=2, K=2, D=10)
    doc = serialize_chart(ch)
    for key in ("terms", "frame", "n", "K"):
        broken = dict(doc)
        del broken[key]
        with pytest.raises(SchemaError):
            deserialize_chart(broken)
    rows = doc["terms"]
    radius = doc["radius"]
    broken_parts = [
        {"terms": rows[:-1]},
        {"terms": 3},
        {"terms": [rows[0], 7] + rows[2:]},
        {"frame": 0},
        {"radius": "0.5"},
        {"n": [2]},
        {"K": None},
        {"branch": "x"},
        {"precision": 5},
    ] + [
        {"radius": {k: v for k, v in radius.items() if k != key}}
        for key in ("C", "M", "rho", "fit")
    ]
    for part in broken_parts:
        with pytest.raises(SchemaError):
            deserialize_chart({**doc, **part})


def test_version_and_schema_mismatch_rejected():
    doc = serialize_chart(extend_arc(graph_arc(["0"]), 0.0, n=2, K=1, D=6))
    with pytest.raises(SchemaError):
        deserialize_chart({**doc, "version": 99})
    with pytest.raises(SchemaError):
        deserialize_chart({**doc, "schema": "something-else"})
    with pytest.raises(SchemaError):
        deserialize_chart([doc])


def test_mp_chart_round_trip():
    from slagext.precision import mp_context

    ctx = mp_context(30)
    ch = extend_arc(graph_arc(["0", "0", "0.5"], ctx=ctx), ctx.real("0.1"),
                    n=2, K=2, D=10, ctx=ctx, with_radius=False)
    doc = serialize_chart(ch)
    assert doc["precision"] == "mp30"
    back = deserialize_chart(json.loads(json.dumps(doc)))
    assert _charts_equal(ch, back)


def _mp_graph_chart(dps, s0="0.1", K=6, D=24):
    ctx = MPContext(dps)
    return extend_arc(graph_arc(["0", "0", "0.5", "0.1"], ctx=ctx),
                      ctx.real(s0), n=2, K=K, D=D, ctx=ctx)


def test_mp_chart_label_ignores_later_contexts():
    # the label and the digits written come from the chart's own scalars,
    # not from the last precision context made in the process
    ch = _mp_graph_chart(40)
    MPContext(20)
    doc = json.loads(json.dumps(serialize_chart(ch)))
    assert doc["precision"] == "mp40"
    assert deserialize_chart(doc) == ch


def test_mp_charts_read_share_one_context(monkeypatch):
    """One ``MPContext`` per digit count: two mp40 documents read back into
    slots of one mpmath context, so that their product takes the Kronecker
    kernel."""
    assert context_named("mp40") is context_named(" MP40 ") is mp_context(40)
    docs = [json.loads(json.dumps(serialize_chart(_mp_graph_chart(40, s0))))
            for s0 in ("0.1", "-0.2")]
    a, b = (deserialize_chart(doc).phi.terms[1].array for doc in docs)
    assert type(a) is RawSlot is type(b) and a.mp is b.mp
    calls = []
    kronecker = precision._kronecker
    monkeypatch.setattr(precision, "_kronecker",
                        lambda x, y: calls.append(1) or kronecker(x, y))
    poly_mul(TaylorPoly(a), TaylorPoly(b))
    assert calls == [1]


@given(st.data(),
       st.lists(st.integers(16, 60), min_size=2, max_size=3, unique=True),
       st.floats(-0.3, 0.3))
@settings(max_examples=15, deadline=None)
def test_mixed_precision_round_trip_property(data, digits, s0):
    charts = [_mp_graph_chart(dps, s0=s0, K=2, D=8) for dps in digits]
    for i in data.draw(st.permutations(range(len(digits)))):
        doc = json.loads(json.dumps(serialize_chart(charts[i])))
        assert doc["precision"] == f"mp{digits[i]}"
        assert deserialize_chart(doc) == charts[i]


def test_reduced_mesh_counts_and_flatness():
    ch = extend_arc(graph_arc(["0"]), 0.0, n=2, K=2, D=10)
    res = 6
    text = reduced_mesh_text([ch], res, 0.1)
    vlines = [l for l in text.splitlines() if l.startswith("v ")]
    flines = [l for l in text.splitlines() if l.startswith("f ")]
    assert len(vlines) == res * res
    assert len(flines) == (res - 1) * (res - 1)
    # flat chart: w stays real, zeta stays real
    for line in vlines:
        _, x, y, z, w = line.split()
        assert abs(float(y)) == 0.0
        assert abs(float(w)) == 0.0


def test_reduced_mesh_branches_share_the_arc():
    arc = unit_circle_arc()
    charts = [extend_arc(arc, 0.0, n=2, K=3, D=12, branch=j)
              for j in (0, 1)]
    res = 5
    text = reduced_mesh_text(charts, res, 0.08)
    verts = [tuple(map(float, l.split()[1:]))
             for l in text.splitlines() if l.startswith("v ")]
    grid = res * res
    # sigma = 0 row is every res-th vertex starting at 0
    for i in range(res):
        va = verts[i * res]
        vb = verts[grid + i * res]
        assert va == vb


def test_embedded_cloud_shape():
    ch = extend_arc(graph_arc(["0", "0", "0.5"]), 0.0, n=3, K=2, D=10)
    rows = [line.split(",") for line in
            embedded_cloud_text([ch], 4, 0.05, directions=5).splitlines()]
    assert rows[0] == ["x0", "y0", "x1", "y1", "x2", "y2", "x3", "y3"]
    assert len(rows) == 1 + 4 * 4 * 5
    assert all(len(r) == 8 for r in rows)


def test_export_mesh_writes_atomically(tmp_path):
    ch = extend_arc(graph_arc(["0"]), 0.0, n=2, K=1, D=6)
    out = tmp_path / "mesh.obj"
    export_mesh([ch], "reduced", 3, 0.05, str(out))
    assert out.exists()
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []
    with pytest.raises(ValueError):
        export_mesh([ch], "volumetric", 3, 0.05, str(out))


SIGN = 1 << 63
# bit patterns that print alike or compare alike but are not alike: zeros
# of both signs, infinities, quiet and signalling NaNs of both signs with
# several payloads, and subnormals
SPECIAL_BITS = [0, SIGN, 0x7FF0000000000000, SIGN | 0x7FF0000000000000,
                0x7FF8000000000000, SIGN | 0x7FF8000000000000,
                0x7FF8000000000ABC, 0x7FF0000000000001,
                SIGN | 0x7FF4000000000000, 1, SIGN | 1, 0x000FFFFFFFFFFFFF]
float_bits = st.one_of(
    st.sampled_from(SPECIAL_BITS),
    st.floats(width=64).map(
        lambda x: int(np.array(x).view(np.uint64))),
    st.integers(1, (1 << 52) - 1).flatmap(
        lambda m: st.sampled_from([m, SIGN | m])))


@given(st.data(), st.sampled_from([("v %s %s %s %s", 2),
                                   (",".join(["%s"] * 6), 3),
                                   (",".join(["%s"] * 10), 5)]))
@settings(max_examples=80, deadline=None)
def test_text_lines_equal_one_format_per_number(data, spec):
    """The distinct numbers printed once and gathered back give the text of
    one %.17g per number, byte for byte. Numbers come from a small pool,
    the special bit patterns and a few more, so most repeat, as w does
    across the cloud's directions."""
    template, coords = spec
    pool = SPECIAL_BITS + data.draw(st.lists(float_bits, max_size=6))
    rows = data.draw(st.integers(0, 12))
    bits = data.draw(st.lists(st.sampled_from(pool), min_size=2 * coords
                              * rows, max_size=2 * coords * rows))
    parts = np.array(bits, dtype=np.uint64).view(np.float64)
    parts = parts.reshape(rows, coords, 2)
    z = [complex_array(parts[:, k, 0], parts[:, k, 1])
         for k in range(coords)]
    want = ((template.replace("%s", "%.17g") + "\n") * rows) % tuple(
        parts.ravel().tolist())
    assert _text_lines(z, template) == want


# what an entry of a term row decodes to (``real`` of the value given), or
# the SchemaError message it raises, in a float64 and an mp30 document;
# captured before rows of plain numbers decoded in one call
ROW_ENTRIES = [
    (True, 1, None),
    (None, None, "expected a decimal string, got NoneType"),
    ([1], None, "expected a decimal string, got list"),
    ({"a": 1}, None, "expected a decimal string, got dict"),
    (7, 7, None),
    (-0.0, -0.0, None),
    ("2.5e-3", "2.5e-3", None),
]


@pytest.mark.parametrize("precision", ["float64", "mp30"])
@pytest.mark.parametrize("entry, value, message", ROW_ENTRIES, ids=repr)
def test_row_entries_decode_as_single_values(precision, entry, value,
                                             message):
    ctx = context_named(precision)
    ch = extend_arc(graph_arc(["0", "0", "0.5"], ctx=ctx), ctx.real("0.1"),
                    n=2, K=2, D=10, ctx=ctx)
    doc = json.loads(json.dumps(serialize_chart(ch)))
    doc["terms"][2][3] = entry
    if message is not None:
        with pytest.raises(SchemaError) as err:
            deserialize_chart(doc)
        assert str(err.value) == message
        return
    back = deserialize_chart(doc).phi.terms[2].coeffs
    assert back[3] == ctx.real(value) and repr(back[3]) == repr(
        ctx.real(value))
    assert back[:3] + back[4:] == ch.phi.terms[2].coeffs[:3] \
        + ch.phi.terms[2].coeffs[4:]


# an edit of a chart document, and the error and message it raises at
# float64 and at mp30 (None: it loads)
MALFORMED = [
    ("terms", (2, 3), "abc", SchemaError,
     "chart term 2 entry 3 is not a decimal number: 'abc'", None),
    ("terms", (1, 0), "", SchemaError,
     "chart term 1 entry 0 is not a decimal number: ''", None),
    ("terms", (2, 3), "1e99999", NonFiniteError,
     "chart term 2 entry 3 is past float64 range: '1e99999'", "loads"),
    ("terms", (0, 4), 10 ** 400, NonFiniteError,
     "chart term 0 entry 4 is past float64 range", "loads"),
    ("frame", "theta", "abc", SchemaError,
     "chart frame theta is not a decimal number: 'abc'", None),
    ("frame", "theta", "nan", NonFiniteError,
     "chart frame holds a NaN or an infinity", None),
    ("frame", "a_re", "1e99999", NonFiniteError,
     "chart frame holds a NaN or an infinity", "loads"),
    ("frame", "a_im", "-inf", NonFiniteError,
     "chart frame holds a NaN or an infinity", None),
    ("radius", "M", "1/3", SchemaError,
     "chart radius M is not a decimal number: '1/3'", None),
    ("center_param", None, " ", SchemaError,
     "chart center_param is not a decimal number: ' '", None),
]


@pytest.mark.parametrize("precision", ["float64", "mp30"])
@pytest.mark.parametrize("field, key, entry, error, message, mp", MALFORMED)
def test_malformed_and_non_finite_values_raise_typed_errors(
        precision, field, key, entry, error, message, mp):
    """A string that is not a decimal number raises ``SchemaError`` naming
    its field, and a number past float64 range in a term, or a NaN or an
    infinity in the frame, ``NonFiniteError``; at mp30 such a number is
    finite and loads. The radius is read at float64 in both."""
    ctx = context_named(precision)
    ch = extend_arc(graph_arc(["0", "0", "0.5"], ctx=ctx), ctx.real("0.1"),
                    n=2, K=2, D=10, ctx=ctx)
    doc = json.loads(json.dumps(serialize_chart(ch)))
    doc["center_param"] = "0.1"
    if key is None:
        doc[field] = entry
    elif field == "terms":
        doc["terms"][key[0]][key[1]] = entry
    else:
        doc[field][key] = entry
    if precision == "mp30" and mp == "loads":
        deserialize_chart(doc)
        return
    with pytest.raises(error) as err:
        deserialize_chart(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("precision", ["float64", "mp30"])
def test_spelled_out_nan_and_infinity_in_terms_load(precision):
    """A NaN or an infinity in a term, as ``serialize_chart`` writes it, and
    an infinite radius (a zero tail's M and rho) load as they are, so a
    non-finite chart round-trips and its residual report can fail on it."""
    ctx = context_named(precision)
    ch = extend_arc(graph_arc(["0", "0", "0.5"], ctx=ctx), ctx.real("0.1"),
                    n=2, K=2, D=10, ctx=ctx)
    doc = json.loads(json.dumps(serialize_chart(ch)))
    doc["terms"][2][3:6] = ["nan", "-inf", "inf"]
    if precision == "float64":  # as float() spells an infinity too
        doc["terms"][2][6] = " +Infinity "
    doc["radius"]["rho"] = "inf"
    back = deserialize_chart(doc)
    coeffs = back.phi.terms[2].coeffs
    assert [repr(c) for c in coeffs[3:6]] == [
        repr(ctx.real(s)) for s in ("nan", "-inf", "inf")]
    assert back.radius.rho_sigma == math.inf
    again = deserialize_chart(json.loads(json.dumps(serialize_chart(back))))
    assert [repr(c) for c in again.phi.terms[2].coeffs] == list(
        map(repr, coeffs))


def _chart_of_rows(rows, n=3):
    """A chart holding the coefficient rows as its f_k, the base-point
    zeros of f0 and f1 put in front."""
    from slagext.arcs import Frame
    from slagext.series import SigmaExpansion

    zero = rows[0][0] * 0
    terms = [[zero] * 3 + rows[0][3:], [zero] + rows[1][1:]] + rows[2:]
    return Chart(n=n, branch=0, frame=Frame(a=complex(0.5, -0.25),
                                            theta=1.0),
                 phi=SigmaExpansion(n=n, terms=tuple(map(TaylorPoly,
                                                         terms))))


FLOAT_EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               2.225073858507201e-308, 1e-300, -3.3e-301, 1e300,
               -1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 1e16, 123.0]
floats = st.one_of(st.sampled_from(FLOAT_EDGES),
                   st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-2 ** 60, 2 ** 60).map(float))


def mpfs(dps):
    """mpf of the mp<dps> context: a full-precision mantissa at any
    exponent, zero, and floats as they enter."""
    mp = context_named(f"mp{dps}")._mp
    bits = mp.prec + 8
    return st.one_of(
        st.builds(lambda m, e: mp.mpf((m, e)),
                  st.integers(-2 ** bits, 2 ** bits), st.integers(-1200, 1200)),
        st.just(mp.mpf(0)), floats.map(mp.mpf))


@given(st.data(), st.sampled_from(["float64", "mp20", "mp40"]),
       st.integers(1, 4), st.integers(3, 8), st.booleans())
@settings(max_examples=60, deadline=None)
def test_rows_encode_as_each_coefficient_does(data, precision, K, cap,
                                              shared_first):
    """The chart text is that of ``encode_real`` on each coefficient, byte
    for byte, whether the expansion's strings or the per-coefficient ones
    are made first, and the text reloads to the same coefficients."""
    draw = floats if precision == "float64" else mpfs(int(precision[2:]))
    rows = [data.draw(st.lists(draw, min_size=cap + 1, max_size=cap + 1))
            for _ in range(K + 1)]
    ch = _chart_of_rows(rows)
    assert (type(ch.phi.terms[1].array) is RawSlot) == (
        precision != "float64")
    if shared_first:
        doc = serialize_chart(ch)
    want = [[encode_real(c) for c in f.coeffs] for f in ch.phi.terms]
    if not shared_first:
        doc = serialize_chart(ch)
    assert doc["terms"] == want
    assert doc["precision"] == precision
    back = deserialize_chart(json.loads(json.dumps(doc)))
    for f, g in zip(ch.phi.terms, back.phi.terms):
        assert g.coeffs == f.coeffs and repr(g) == repr(f)
    assert serialize_chart(back)["terms"] == want


@given(st.sampled_from(["mp20", "mp40"]),
       st.lists(st.one_of(
           st.builds("{}{}.{}e{}".format, st.sampled_from(["", "-", "+"]),
                     st.integers(0, 10 ** 30), st.integers(0, 10 ** 30),
                     st.integers(-1200, 1200)),
           st.sampled_from(["0", "-0.0", "1", " 2.5 ", "1e400", "3E-401",
                            "inf", "-inf", "nan", "1/3"])),
           min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_mp_rows_decode_as_each_string_does(precision, row):
    ctx = context_named(precision)
    assert ctx.reals(row).raw == [ctx.real(s)._mpf_ for s in row]


@pytest.mark.parametrize("precision", ["float64", "mp30"])
def test_branch_charts_share_one_encoding(precision, monkeypatch):
    """The n branch charts of one arc point make their decimal strings once;
    an edit of a returned document reaches no later one; a chart read back
    makes its own strings, equal to the original's."""
    from slagext import series

    made = []
    strings = series.decimal_strings
    monkeypatch.setattr(series, "decimal_strings",
                        lambda cs: made.append(1) or strings(cs))
    ctx = context_named(precision)
    arc = graph_arc(["0", "0", "0.5", "0.1"], ctx=ctx)
    charts = [extend_arc(arc, ctx.real("0.2"), n=3, K=3, D=12, ctx=ctx,
                         branch=b) for b in range(3)]
    docs = [serialize_chart(ch) for ch in charts]
    assert len(made) == 4  # one per f_k, for all three charts
    rows = charts[0].phi.decimal_rows
    assert all(ch.phi.decimal_rows is rows for ch in charts)
    assert [d["terms"] for d in docs[1:]] == [docs[0]["terms"]] * 2
    text = json.dumps(docs[0])
    docs[0]["terms"][1][2] = "7"
    docs[0]["terms"][2].append("8")
    docs[0]["terms"].pop()
    assert json.dumps(serialize_chart(charts[0])) == text
    assert json.dumps(serialize_chart(charts[1])) == text.replace(
        '"branch": 0', '"branch": 1')
    back = deserialize_chart(json.loads(text))
    assert back.phi.decimal_rows is not rows
    assert back.phi.decimal_rows == rows
    assert len(made) == 8
