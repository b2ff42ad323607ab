"""JSON schemas and deterministic serialization.

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
              "intertwiners": [order iso with "beta": real after "h", ...]}
Jump data:   {"vertices": [...], "J": [{"x": a, "y": b, "value": real}],
              "k": {v: real}}
             (read from the edge columns: J = b / 2 on both orientations,
             sorted by (x, y), and k = c)
Metric:      {"d": [[...], ...]} in the vertex order of the owning space
Report:      {"checks": [{"name", "residual", "tol", "pass", "detail"?}],
              "verdict": bool}

Numbers are emitted with 17 significant digits, which round-trips IEEE
doubles exactly, so identical inputs always serialize to identical bytes;
-0.0 is written "-0.0", as "-0" reads back as the int 0.
There is one serializer, ``dumps``; ``chunks`` gives its bytes in pieces,
a matrix row or an intertwiner per piece, after checking every value, so
that a writer need not hold the document whole and a value that cannot be
serialized raises before the first piece.
``dumps`` also accepts a 1-D or 2-D float ``np.ndarray`` wherever a list
may stand and writes the same bytes as for its ``tolist()``.  It formats
each distinct value of the array once, so a symmetric n x n metric costs
at most about n^2 / 2 float conversions, and one with few distinct
distances far fewer.  Likewise a list of ``OrderIso`` on one source and
one target space, such as a search's solutions, is written as the list of
their order iso objects, each with "beta" after "h", read from the arrays
of the isos, not their dicts: every item fills one template, in which each
target id and each source id is encoded once and each distinct h and beta
is formatted once: the 720 solutions on K6 take 12 id encodings and a
float conversion per distinct value.  A list of flat dicts on the same
keys, each key's values all strings or all finite floats, such as the
jump list J, is filled into one item template the same way.

``loads`` is the one reader.  orjson reads a text of at most 512 opening
brackets, every graph, pair and iso document; json reads a deeper text
(the per-edge layout, a metric of more than about 510 rows) and every
text that orjson refuses: NaN and Infinity, a number past the float
range, a lone surrogate, and every malformed text, so that an error
carries json's message.  Both give the same objects.  The one difference,
an integer past 64 bits that orjson reads as a float and json as an int,
reaches no result, as every number is read through ``float``.  A text
nested too deeply for json raises MalformedInput too.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Mapping

import numpy as np

from .core import GraphForm, MeasureSpace
from .errors import DirikitError, MalformedInput, UnknownVertex
from .metrics import PseudoMetric
from .orderiso import OrderIso
from .tolerances import Tolerance


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise MalformedInput(f"cannot serialize non-finite number {value}")
    text = format(float(value), ".17g")
    return "-0.0" if text == "-0" else text  # "-0" would read back as the int 0


# the function json.dumps(str) calls with default arguments: same bytes
_encode = json.encoder.encode_basestring_ascii

# a gap in a layout: JSON text holds no raw NUL, encode_basestring_ascii escapes it
_GAP = "\0"


def _bracket(items: list[str], indent: int, brackets: str = "[]") -> str:
    """A JSON array (or object) of already serialized items, its brackets at
    ``indent``."""
    if not items:
        return brackets
    inner = " " * (indent + 2)
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(items)
            + "\n" + " " * indent + brackets[1])


def _float_texts(values: np.ndarray) -> np.ndarray:
    """The texts of a float array's values, an object array of its shape.
    Every value is checked, and each distinct one formatted once."""
    flat = values.astype(float, copy=False).reshape(-1)
    finite = np.isfinite(flat)
    if not finite.all():
        _format_float(float(flat[np.argmin(finite)]))  # raises for the first one
    del finite
    # one bit pattern per finite double, so -0.0 stays apart from 0.0
    # where np.unique on the values would merge them
    bits, where = np.unique(flat.view(np.int64), return_inverse=True)
    text = np.array([format(x, ".17g") for x in bits.view(float).tolist()], dtype=object)
    if len(bits) and bits[0] == np.iinfo(np.int64).min:  # -0.0, so it sorts first
        text[0] = "-0.0"
    return text[where].reshape(values.shape)


def _float_rows(values: np.ndarray, indent: int):
    """The item texts of a 1-D float array, or an iterator over the row
    texts of a 2-D one, at ``indent``.  Every value is checked, and each
    distinct one formatted, before this returns; rows are joined lazily."""
    texts = _float_texts(values)
    if values.ndim == 1:
        return texts.tolist()
    return (_bracket(row.tolist(), indent + 2) for row in texts)


def _intertwiner_items(solutions, indent: int):
    """An iterator over the item texts, at ``indent``, of a list of order
    isos on one source and one target space: each the object of
    ``iso_to_obj`` with "beta" after "h", filled into one template in which
    each target id is encoded once.  The ``tau_indices`` pick from one array
    of encoded source ids, and every h and beta is checked, and each
    distinct one formatted, by one ``_float_texts`` before this returns."""
    source, target = solutions[0].source.vertices, solutions[0].target.vertices
    if any(iso.source.vertices != source or iso.target.vertices != target for iso in solutions):
        raise MalformedInput("cannot serialize intertwiners between different spaces")
    cells = [_encode(y) + ": " + _GAP for y in target]
    template = _bracket(['"tau": ' + _bracket(cells, indent + 4, "{}"),
                         '"h": ' + _bracket(cells, indent + 4, "{}"),
                         '"beta": ' + _GAP], indent + 2, "{}")
    # a printf template: n tau cells, n h cells and beta
    template = template.replace("%", "%%").replace(_GAP, "%s")
    ids = np.array([_encode(x) for x in source], dtype=object)
    numbers = _float_texts(np.column_stack([np.stack([iso.h_values for iso in solutions]),
                                            [iso.beta for iso in solutions]]))
    taus = ids[np.stack([iso.tau_indices for iso in solutions])]
    return (template % tuple(row) for row in np.concatenate([taus, numbers], axis=1).tolist())


def _record_items(records: list, indent: int):
    """The item texts, at ``indent``, of a nonempty list of flat dicts with
    the same str keys in the same order, each key's values all str or all
    finite floats, such as the jump list of ``jump_to_obj``: each record
    filled into one template, each distinct str encoded once and each
    distinct float formatted once.  None for any other list, which
    ``dumps`` writes item by item to the same bytes, or fails on at the
    first value it cannot serialize."""
    if not records or type(records[0]) is not dict or not records[0]:
        return None
    keys = tuple(records[0])
    if not all(type(record) is dict and tuple(record) == keys for record in records):
        return None
    if not all(type(key) is str for key in keys):
        return None
    columns = []
    for key in keys:
        column = [record[key] for record in records]
        kinds = set(map(type, column))
        if kinds == {str}:
            texts = {value: _encode(value) for value in set(column)}
            columns.append(map(texts.__getitem__, column))
        elif kinds == {float}:
            values = np.array(column)
            if not np.isfinite(values).all():
                return None
            columns.append(_float_texts(values).tolist())
        else:
            return None
    # a printf template with a slot per key
    template = _bracket([_encode(key) + ": " + _GAP for key in keys], indent + 2, "{}")
    template = template.replace("%", "%%").replace(_GAP, "%s")
    return [template % values for values in zip(*columns)]


def _is_intertwiners(obj) -> bool:
    """Whether obj is a nonempty list or tuple of order isos."""
    return (isinstance(obj, (list, tuple)) and bool(obj)
            and all(isinstance(item, OrderIso) for item in obj))


def _item_stream(value, indent: int):
    """The lazily joined item texts of a list that ``chunks`` writes an
    item per piece, at ``indent``: the rows of a nonempty 2-D float array
    or the intertwiners of a nonempty list of order isos; else None."""
    if isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.ndim == 2 and len(value):
        return _float_rows(value, indent)
    if _is_intertwiners(value):
        return _intertwiner_items(value, indent)
    return None


def _format_mapping(obj: Mapping, indent: int) -> str:
    # flat mappings (str keys, str or float values) format their values in
    # place, not by recursion
    if all(type(key) is str for key in obj) and set(map(type, obj.values())) <= {str, float}:
        items = [f"{_encode(k)}: {_encode(v) if type(v) is str else _format_float(v)}"
                 for k, v in obj.items()]
    else:
        items = [f"{_encode(str(key))}: {dumps(value, indent + 2)}" for key, value in obj.items()]
    return _bracket(items, indent, "{}")


def dumps(obj, indent: int = 0) -> str:
    """Serialize nested dict/list/str/number/bool/None data and 1-D or 2-D
    float arrays deterministically."""
    # the common types first; a bool is no float, so its place is safe
    if isinstance(obj, dict):
        return _format_mapping(obj, indent)
    if isinstance(obj, str):
        return _encode(obj)
    if isinstance(obj, (float, np.floating)):
        return _format_float(obj)
    if isinstance(obj, (list, tuple)):
        if _is_intertwiners(obj):
            return _bracket(list(_intertwiner_items(obj, indent)), indent)
        items = _record_items(obj, indent)
        if items is None:
            items = [dumps(item, indent + 2) for item in obj]
        return _bracket(items, indent)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, np.ndarray) and obj.dtype.kind == "f" and obj.ndim in (1, 2):
        return _bracket(list(_float_rows(obj, indent)), indent)
    if isinstance(obj, Mapping):
        return _format_mapping(obj, indent)
    raise MalformedInput(f"cannot serialize {type(obj).__name__}")


def _item_pieces(items, indent: int):
    """``_bracket(items, indent)`` of nonempty ``items`` in pieces, each
    item with the separator before it, then the closing bracket."""
    opening, separator, closing = _bracket([_GAP, _GAP], indent).split(_GAP)
    for item in items:
        yield opening + item
        opening = separator
    yield closing


def chunks(obj):
    """The text of ``dumps(obj) + "\\n"`` in pieces, each row of a nonempty
    2-D float array and each order iso of a nonempty list of them that is a
    value of a top-level mapping in a piece of its own.  Every value is
    checked, and all but those items formatted, before this returns, so a
    value that cannot be serialized raises here."""
    if not (isinstance(obj, Mapping) and obj):
        return [dumps(obj) + "\n"]
    # in document order, so that the first bad value raises
    texts = [_item_stream(value, 2) or dumps(value, 2) for value in obj.values()]
    # each streamed list stands as a gap in the document, and its items fill the gap
    skeleton = _bracket([_encode(str(key)) + ": " + (text if type(text) is str else _GAP)
                         for key, text in zip(obj, texts)], 0, "{}") + "\n"
    parts = skeleton.split(_GAP)
    streams = [parts[:1]]
    for items, part in zip((text for text in texts if type(text) is not str), parts[1:]):
        streams += [_item_pieces(items, 2), [part]]
    return itertools.chain.from_iterable(streams)


# orjson 3.8 recurses once per nesting level with no limit, and a text
# 200 000 levels deep crashes the interpreter.  A text's count of opening
# brackets bounds its depth, and this bound lies well inside the depth that
# json reads (about 970 levels from the CLI), so any text that orjson reads
# json would read too.  Graph, pair and iso documents hold 8 to 20.
_ORJSON_MAX_BRACKETS = 512


def loads(text: str):
    """The objects of a JSON text, as ``json.loads`` gives them, or
    MalformedInput with json's message.  orjson reads a text of at most
    ``_ORJSON_MAX_BRACKETS`` opening brackets; json reads the rest and
    whatever orjson refuses."""
    if text.count("[") + text.count("{") <= _ORJSON_MAX_BRACKETS:
        import orjson  # here, so that a path that reads no JSON loads none of it

        try:
            return orjson.loads(text)
        except orjson.JSONDecodeError:
            pass  # NaN, 1e400, a lone surrogate or an error: json's reading
    try:
        return json.loads(text)
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
    vertices = _require(obj, "vertices", list, "graph")
    if not all(isinstance(v, str) for v in vertices):
        raise MalformedInput("graph: vertices must be strings")
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
        return GraphForm._from_columns(MeasureSpace(vertices, m), us, vs, bs, killing)
    except (DirikitError, TypeError, OverflowError):
        # a malformed edge (a non-string end, an int out of float range) is
        # reported before any later fault
        _check_columns(us, vs, bs)
        raise


def graph_dumps(form: GraphForm) -> str:
    return dumps(graph_to_obj(form)) + "\n"


def graph_loads(text: str) -> GraphForm:
    return graph_from_obj(loads(text))


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
    form1 = graph_from_obj(obj.get("g1"))
    form2 = graph_from_obj(obj.get("g2"))
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
