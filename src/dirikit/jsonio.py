"""JSON schemas and deterministic serialization.

Graph:       {"vertices": [...], "m": {v: real},
              "edges": [{"u": v, "v": w, "b": real}], "killing": {v: real}}
             (absent killing entries default to 0)
Order iso:   {"tau": {y: x}, "h": {y: real}}
Jump data:   {"vertices": [...], "J": [{"x": a, "y": b, "value": real}],
              "k": {v: real}}
Metric:      {"d": [[...], ...]} in the vertex order of the owning space
Report:      {"checks": [{"name", "residual", "tol", "pass", "detail"?}],
              "verdict": bool}

Numbers are emitted with 17 significant digits, which round-trips IEEE
doubles exactly, so identical inputs always serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

import numpy as np

from .beurling import JumpKilling
from .core import GraphForm, MeasureSpace, build_form
from .errors import MalformedInput
from .metrics import PseudoMetric
from .orderiso import OrderIso


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise MalformedInput(f"cannot serialize non-finite number {value}")
    return format(float(value), ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Serialize nested dict/list/str/number/bool/None data deterministically."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(item) is float for item in obj):
            items = [_format_float(item) for item in obj]
        else:
            items = [dumps(item, indent + 2) for item in obj]
        return "[\n" + ",\n".join(inner + item for item in items) + "\n" + pad + "]"
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        items = [
            f"{json.dumps(str(key))}: {dumps(value, indent + 2)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(inner + item for item in items) + "\n" + pad + "}"
    raise MalformedInput(f"cannot serialize {type(obj).__name__}")


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from None


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


# ---------------------------------------------------------------------------
# graphs


def graph_to_obj(form: GraphForm) -> dict:
    killing = {
        v: float(form.c[i])
        for i, v in enumerate(form.space.vertices)
        if form.c[i] != 0.0
    }
    return {
        "vertices": list(form.space.vertices),
        "m": {v: float(form.space.m[i]) for i, v in enumerate(form.space.vertices)},
        "edges": [{"u": u, "v": v, "b": w} for (u, v), w in sorted(form.b.items())],
        "killing": killing,
    }


def graph_from_obj(obj) -> GraphForm:
    vertices = _require(obj, "vertices", list, "graph")
    if not all(isinstance(v, str) for v in vertices):
        raise MalformedInput("graph: vertices must be strings")
    m_obj = _require(obj, "m", dict, "graph")
    m = {v: _number(m_obj.get(v), f"graph: m[{v!r}]") for v in vertices}
    edge_list = obj.get("edges", [])
    if not isinstance(edge_list, list):
        raise MalformedInput("graph: key 'edges' has wrong type")
    edges = []
    for entry in edge_list:
        u = _require(entry, "u", str, "graph edge")
        v = _require(entry, "v", str, "graph edge")
        w = _number(_require(entry, "b", (int, float), "graph edge"), "graph edge b")
        edges.append((u, v, w))
    killing_obj = obj.get("killing", {})
    if not isinstance(killing_obj, dict):
        raise MalformedInput("graph: killing must be an object")
    killing = {
        v: _number(killing_obj.get(v, 0.0), f"graph: killing[{v!r}]") for v in vertices
    }
    return build_form(vertices, m, edges, killing)


def graph_dumps(form: GraphForm) -> str:
    return dumps(graph_to_obj(form)) + "\n"


def graph_loads(text: str) -> GraphForm:
    return graph_from_obj(loads(text))


# ---------------------------------------------------------------------------
# order isomorphisms


def iso_to_obj(iso: OrderIso) -> dict:
    return {
        "tau": {y: iso.tau[y] for y in iso.target.vertices},
        "h": {y: float(iso.h[y]) for y in iso.target.vertices},
    }


def iso_from_obj(obj, source: MeasureSpace, target: MeasureSpace) -> OrderIso:
    tau = _require(obj, "tau", dict, "iso")
    h = _require(obj, "h", dict, "iso")
    if not all(isinstance(k, str) and isinstance(v, str) for k, v in tau.items()):
        raise MalformedInput("iso: tau must map vertex ids to vertex ids")
    return OrderIso(
        source,
        target,
        dict(tau),
        {k: _number(v, f"iso: h[{k!r}]") for k, v in h.items()},
    )


# ---------------------------------------------------------------------------
# jump/killing data, metrics, reports


def jump_to_obj(data: JumpKilling) -> dict:
    return {
        "vertices": list(data.vertices),
        "J": [
            {"x": x, "y": y, "value": value}
            for (x, y), value in sorted(data.J.items())
        ],
        "k": {v: float(data.k.get(v, 0.0)) for v in data.vertices},
    }


def metric_to_obj(metric: PseudoMetric) -> dict:
    return {"d": metric.d.tolist()}


def metric_from_obj(obj, space: MeasureSpace) -> PseudoMetric:
    rows = _require(obj, "d", list, "metric")
    matrix = []
    for row in rows:
        if not isinstance(row, list):
            raise MalformedInput("metric: d must be a matrix")
        matrix.append([_number(x, "metric entry") for x in row])
    return PseudoMetric(space.vertices, np.array(matrix, dtype=float))
