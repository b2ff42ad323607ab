"""JSON schemas, the one writer and the one reader.

Graph:       {"vertices": [...], "m": {v: real},
              "edges": {"u": [v, ...], "v": [w, ...], "b": [real, ...]},
              "killing": {v: real}}
             (absent killing entries default to 0; edge k joins u[k] and
             v[k] with weight b[k]; edges are read in any order and
             orientation and written in key order, u <= v.  The per-edge
             layout "edges": [{"u": v, "v": w, "b": real}, ...] is read too,
             and a malformed edge raises the same first error in either)
Order iso:   {"tau": {y: x}, "h": {y: real}}
Pair:        {"g1": graph, "g2": graph, "iso": order iso from g1 onto g2}
Search:      {"equivalent": bool, "reason": str or null,
              "intertwiners": [order iso with "beta": real after "h", ...],
              "capped": bool}
             (capped: more than max_solutions solutions exist)
Jump data:   {"vertices": [...], "J": [{"x": a, "y": b, "value": real}],
              "k": {v: real}}
             (read from the edge columns: J = b / 2 on both orientations,
             sorted by (x, y), and k = c)
Metric:      {"d": [[...], ...]} in the vertex order of the owning space
Report:      {"checks": [{"name", "residual", "tol", "pass", "detail"?}],
              "verdict": bool}

``document`` is the one writer: ``orjson.dumps`` with a two-space indent,
as UTF-8 bytes.  Floats are written shortest round-trip (Ryu): 0.1, 1.0,
1e16, and -0.0 apart from 0.0.  A pre-pass keeps the checks orjson lacks:
every float, in a list, a mapping, an array or a numpy scalar, is finite
(orjson writes NaN and inf as null), else MalformedInput names the first
in document order, as it does for whatever orjson refuses (a type, a key
that is no str, a lone surrogate, nesting past its limit).  An array is
written as its ``tolist()``, a float array as float64.  A list of
``OrderIso``, such as a search's solutions, is written as their order
iso objects, each with "beta" after "h", read from the isos' arrays.
The bytes are built whole, so a bad value leaves no output.  Identical
inputs give identical bytes at a fixed BLAS build and thread count only:
the spectrum and the resistance matrix change in their last bits with it
(on a 366-vertex Sierpinski gasket, by about 2e-15 of the largest
eigenvalue and 2e-16 of the largest resistance).  A transient certify
makes no BLAS call, so its report's bytes depend on neither.

``loads`` is the one reader, of UTF-8 bytes as the CLI reads them or of
text.  orjson reads a document of at most 512 opening brackets, every
graph, pair and iso document, and takes bytes as they are; json reads a
deeper document (the per-edge layout, a metric of more than about 510
rows) and every one that orjson refuses: NaN and Infinity, a number past
the float range, a lone surrogate, a byte order mark and every malformed
text, so that an error carries json's message.  Bytes are decoded only
for json, and bytes that are not UTF-8 raise MalformedInput with the
first bad byte.  Both give the same objects.  The one difference, an
integer past 64 bits that orjson reads as a float and json as an int,
reaches no result, as every number is read through ``float``.  A text
nested too deeply for json raises MalformedInput too, and so does a graph
whose vertex id holds a lone surrogate, which no UTF-8 output can hold.

``pair_from_obj`` reads g2 on g1's vertex ids, index, edge keys and key
order when g2's vertex list and u and v columns equal g1's, as in a Doob
pair or a graph certified against itself; only g2's measure, weights and
killing are converted and checked, with the errors of reading g2 alone;
``GraphForm._on_keys`` builds it, as it builds a Doob partner, and g2
reads g1's connectivity when their positive-weight patterns are equal.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import GraphForm, MeasureSpace
from .errors import DirikitError, MalformedInput, UnknownVertex
from .metrics import PseudoMetric
from .orderiso import OrderIso
from .tolerances import Tolerance


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise MalformedInput(f"cannot serialize non-finite number {value}")
    return value


# the types that orjson writes as they are; of them only a float can be
# non-finite, and orjson writes NaN and inf as null
_LEAVES = frozenset({str, int, float, bool, type(None)})


def _check_leaves(values, kinds: set) -> None:
    """MalformedInput at the first non-finite float of ``values``, whose
    types are ``kinds``, a subset of _LEAVES."""
    if float not in kinds or (kinds == {float} and all(map(math.isfinite, values))):
        return
    for value in values:
        if type(value) is float:
            _finite(value)


def _iso_items(isos: list) -> list[dict]:
    """The objects of ``iso_to_obj`` with "beta" after "h" of order isos on
    one source and one target space, read from their arrays in one step,
    each h and beta checked finite."""
    first = isos[0]
    sources, targets = first.source.vertices, first.target.vertices
    if any(iso.source.vertices != sources or iso.target.vertices != targets for iso in isos):
        raise MalformedInput("cannot serialize intertwiners between different spaces")
    h = np.stack([iso.h_values for iso in isos])
    betas = [iso.beta for iso in isos]
    if not (np.isfinite(h).all() and all(map(math.isfinite, betas))):
        # raises for the first in document order: each iso's h, then its beta
        _check_leaves(np.column_stack([h, betas]).ravel().tolist(), {float})
    taus = np.array(sources, dtype=object)[np.stack([iso.tau_indices for iso in isos])]
    return [{"tau": dict(zip(targets, tau)), "h": dict(zip(targets, row)), "beta": beta}
            for tau, row, beta in zip(taus.tolist(), h.tolist(), betas)]


def _prepared(obj):
    """``obj`` as orjson is to write it: a list or tuple of order isos as
    their ``_iso_items`` objects, a float array as a C-contiguous float64
    array, any other array C-contiguous and a numpy float as a float.
    MalformedInput at the first non-finite float in document order."""
    if isinstance(obj, dict):
        kinds = set(map(type, obj.values()))
        if kinds <= _LEAVES:
            _check_leaves(obj.values(), kinds)
            return obj
        return {key: _prepared(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        kinds = set(map(type, obj))
        if kinds <= _LEAVES:
            _check_leaves(obj, kinds)
            return obj
        if kinds == {OrderIso}:
            return _iso_items(obj)
        return [_prepared(item) for item in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            obj = obj.astype(float, order="C", copy=False)
            finite = np.isfinite(obj)
            if not finite.all():
                _finite(float(obj.flat[np.argmin(finite)]))  # raises for the first one
        return obj if obj.flags.c_contiguous else np.ascontiguousarray(obj)
    if isinstance(obj, (float, np.floating)):
        return _finite(float(obj))
    return obj


def document(obj) -> bytes:
    """The JSON document of nested dict/list/tuple/str/number/bool/None data
    and numpy arrays and scalars, as UTF-8 bytes with a final newline.
    MalformedInput for a non-finite float and for whatever orjson refuses:
    a type it cannot write, a key that is no str, a lone surrogate, an int
    past 64 bits, nesting past its depth limit."""
    import orjson  # here, so that importing dirikit loads none of it

    try:
        prepared = _prepared(obj)
    except RecursionError:
        raise MalformedInput("cannot serialize: nested too deeply") from None
    options = orjson.OPT_INDENT_2 | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    try:
        return orjson.dumps(prepared, option=options)
    except orjson.JSONEncodeError as exc:
        raise MalformedInput(f"cannot serialize: {exc}") from None


def dumps(obj) -> str:
    """The text of ``document(obj)`` without its final newline."""
    return document(obj)[:-1].decode()


# orjson 3.8 recurses once per nesting level with no limit, and a text
# 200 000 levels deep crashes the interpreter.  A text's count of opening
# brackets bounds its depth, and this bound lies well inside the depth that
# json reads (about 970 levels from the CLI), so any text that orjson reads
# json would read too.  Graph, pair and iso documents hold 8 to 20.
_ORJSON_MAX_BRACKETS = 512


def _brackets(data: bytes | str) -> int:
    """The count of "[" and "{" in a document.  In UTF-8 bytes every byte of
    a multibyte sequence is at least 0x80, so the count is the text's; it
    is taken on a uint8 view, one mask at a time."""
    if isinstance(data, str):
        return data.count("[") + data.count("{")
    codes = np.frombuffer(data, np.uint8)
    return int(np.count_nonzero(codes == ord("["))) + int(np.count_nonzero(codes == ord("{")))


def loads(data: bytes | str):
    """The objects of a JSON document, given as UTF-8 bytes or as text, as
    ``json.loads`` gives them for its text, or MalformedInput: with json's
    message, or for bytes that are not UTF-8 with the first bad byte.
    orjson reads a document of at most ``_ORJSON_MAX_BRACKETS`` opening
    brackets, bytes as they are; json reads the rest and whatever orjson
    refuses (bytes that are not UTF-8 among them), bytes decoded first, so
    that a byte order mark stays in the text and json names it."""
    if _brackets(data) <= _ORJSON_MAX_BRACKETS:
        import orjson  # here, so that a path that reads no JSON loads none of it

        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass  # NaN, 1e400, a lone surrogate or an error: json's reading
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedInput(f"invalid UTF-8 at byte {exc.start}: {exc.reason}") from None
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise MalformedInput("invalid JSON: nested too deeply") from None


def _require(obj, key, kind, context):
    if not isinstance(obj, dict) or key not in obj:
        raise MalformedInput(f"{context}: missing key {key!r}")
    value = obj[key]
    if not isinstance(value, kind):
        raise MalformedInput(f"{context}: key {key!r} has wrong type")
    return value


def _number(value, context):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedInput(f"{context}: expected a number")
    try:
        return float(value)
    except OverflowError:
        raise MalformedInput(f"{context}: number out of floating-point range") from None


def _numbers(values: list, names, context: str) -> list[float]:
    """The values as floats, after one pass over their types; only a list
    that holds something other than int and float, or an int out of float
    range, is walked entry by entry, so that ``_number`` names its first
    fault as ``context[name]``."""
    if set(map(type, values)) <= {int, float}:
        try:
            return list(map(float, values))
        except OverflowError:  # an int out of float range, named below
            pass
    return [_number(value, f"{context}[{name!r}]") for name, value in zip(names, values)]


# ---------------------------------------------------------------------------
# graphs


def graph_to_obj(form: GraphForm) -> dict:
    # every entry whose bits are not all zero, so -0.0 stays and +0.0 goes
    killing = {form.space.vertices[i]: float(form.c[i])
               for i in np.flatnonzero(form.c.view(np.int64))}
    us, vs = form.edge_ends()
    return {
        "vertices": list(form.space.vertices),
        "m": {v: float(form.space.m[i]) for i, v in enumerate(form.space.vertices)},
        "edges": {"u": us, "v": vs, "b": form.weights.tolist()},
        "killing": killing,
    }


# the value of a key that an edge object lacks
_MISSING = object()


def _check_columns(us: list, vs: list, bs: list) -> None:
    """Raise MalformedInput at the first malformed edge (us[k], vs[k], bs[k])."""
    for edge in zip(us, vs, bs):
        for key, value, kind in zip("uvb", edge, (str, str, (int, float))):
            if value is _MISSING:
                raise MalformedInput(f"graph edge: missing key {key!r}")
            if not isinstance(value, kind):
                raise MalformedInput(f"graph edge: key {key!r} has wrong type")
        _number(edge[2], "graph edge b")


def _edge_columns(edges) -> list[list]:
    """The u, v and b columns of the edges, given as columns or as a list of
    edge objects; MalformedInput at a fault of the columns' shape."""
    if isinstance(edges, dict):
        columns = [_require(edges, key, list, "graph edges") for key in "uvb"]
        if len(set(map(len, columns))) > 1:
            raise MalformedInput("graph edges: columns 'u', 'v' and 'b' differ in length")
        return columns
    if not isinstance(edges, list):
        raise MalformedInput("graph: key 'edges' has wrong type")
    # an entry that is no object or lacks a key gives _MISSING, which fails
    # the caller's checks, so that _check_columns names the first fault
    return [[entry.get(key, _MISSING) if isinstance(entry, dict) else _MISSING
             for entry in edges] for key in "uvb"]


def _require_vertices(keyed: dict, vertices: set) -> None:
    """Raise UnknownVertex at the first key of ``keyed`` that is not a vertex."""
    if not keyed.keys() <= vertices:
        raise UnknownVertex(f"unknown vertex {next(k for k in keyed if k not in vertices)!r}")


def graph_from_obj(obj) -> GraphForm:
    return _read_graph(obj)[0]


def _read_graph(obj, first: tuple | None = None) -> tuple[GraphForm, list, list, list]:
    """The form of a graph document, with its vertex list and its u and v
    columns as read.  ``first`` is what this returned for a graph read
    before: when this graph's vertex list and u and v columns equal those,
    the form is built on the first form's ids, index, edge keys and key
    order (``GraphForm._same_ends``), with the checks and errors of a graph
    read alone."""
    vertices = _require(obj, "vertices", list, "graph")
    if not all(isinstance(v, str) for v in vertices):
        raise MalformedInput("graph: vertices must be strings")
    try:
        "".join(vertices).encode()
    except UnicodeEncodeError:  # a lone surrogate, which json reads
        raise MalformedInput("graph: vertex ids must be valid Unicode, without "
                             "lone surrogates") from None
    m_obj = _require(obj, "m", dict, "graph")
    m = _numbers([m_obj.get(v) for v in vertices], vertices, "graph: m")
    names = set(vertices)
    _require_vertices(m_obj, names)
    us, vs, bs = _edge_columns(obj.get("edges", []))
    if not set(map(type, bs)) <= {int, float}:
        _check_columns(us, vs, bs)
    try:
        killing_obj = obj.get("killing", {})
        if not isinstance(killing_obj, dict):
            raise MalformedInput("graph: killing must be an object")
        killing = _numbers([killing_obj.get(v, 0.0) for v in vertices], vertices,
                           "graph: killing")
        _require_vertices(killing_obj, names)
        # stops at the first id that differs, as in a relabelled pair
        if first is not None and (vertices, us, vs) == first[1:]:
            form = first[0]._same_ends(m, us, vs, bs, killing)
        else:
            form = GraphForm._from_columns(MeasureSpace(vertices, m), us, vs, bs, killing)
    except (DirikitError, TypeError, OverflowError):
        # a malformed edge (a non-string end, an int out of float range) is
        # reported before any later fault
        _check_columns(us, vs, bs)
        raise
    return form, vertices, us, vs


def graph_loads(data: bytes | str) -> GraphForm:
    return graph_from_obj(loads(data))


# ---------------------------------------------------------------------------
# order isomorphisms


def iso_to_obj(iso: OrderIso) -> dict:
    return {"tau": dict(iso.tau), "h": dict(iso.h)}


def iso_from_obj(obj, source: MeasureSpace, target: MeasureSpace) -> OrderIso:
    tau = _require(obj, "tau", dict, "iso")
    h = _require(obj, "h", dict, "iso")
    if not all(isinstance(k, str) and isinstance(v, str) for k, v in tau.items()):
        raise MalformedInput("iso: tau must map vertex ids to vertex ids")
    scaling = dict(zip(h, _numbers(list(h.values()), h, "iso: h")))
    return OrderIso(source, target, dict(tau), scaling)


def pair_to_obj(form1: GraphForm, form2: GraphForm, iso: OrderIso) -> dict:
    return {"g1": graph_to_obj(form1), "g2": graph_to_obj(form2), "iso": iso_to_obj(iso)}


def pair_from_obj(obj) -> tuple[GraphForm, GraphForm, OrderIso]:
    if not isinstance(obj, dict):
        raise MalformedInput("pair: expected an object with keys 'g1', 'g2' and 'iso'")
    first = _read_graph(obj.get("g1"))
    form1 = first[0]
    form2 = _read_graph(obj.get("g2"), first)[0]
    return form1, form2, iso_from_obj(obj.get("iso"), form1.space, form2.space)


# ---------------------------------------------------------------------------
# jump/killing data, metrics, reports


def jump_to_obj(form: GraphForm) -> dict:
    """The jump and killing measures of a form: J = b / 2 on both
    orientations of each edge, in (x, y) order, and k = c."""
    us, vs = form.edge_ends()
    halves = (form.weights / 2.0).tolist()
    # the pairs (x, y) are distinct, so the sort never compares two values
    jump = sorted(zip(us + vs, vs + us, halves + halves))
    return {
        "vertices": list(form.space.vertices),
        "J": [{"x": x, "y": y, "value": value} for x, y, value in jump],
        "k": dict(zip(form.space.vertices, form.c.tolist())),
    }


def metric_from_obj(obj, space: MeasureSpace, tol: Tolerance) -> PseudoMetric:
    rows = _require(obj, "d", list, "metric")
    width = len(rows[0]) if rows and isinstance(rows[0], list) else 0
    matrix = np.empty((len(rows), width) if rows else 0)
    # one pass over the types of a row; _number runs only on a row that
    # holds something other than int and float, to name its first fault
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != width:
            raise MalformedInput("metric: d must be a matrix")
        if not set(map(type, row)) <= {int, float}:
            row = [_number(x, "metric entry") for x in row]
        try:
            matrix[i] = row
        except OverflowError:  # an int out of float range
            raise MalformedInput("metric entry: number out of floating-point range") from None
    return PseudoMetric(space.vertices, matrix, tol)
