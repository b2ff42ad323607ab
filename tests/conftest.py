import itertools
import json
import math
from functools import cached_property
from typing import Mapping

import numpy as np
from scipy.optimize import linprog
from scipy.sparse.csgraph import shortest_path

import dirikit as dk
from dirikit.errors import DuplicateEdge, MalformedInput, NegativeWeight, SelfLoop
from dirikit.jsonio import _number, _require
from dirikit.search import SearchOptions, residual_bound


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def diagonal_overflow_form():
    """Edges of 6e-309 to a hub of conductance 1e300 to v3: the Green function
    is finite, its diagonal sum for v0, v1 is not."""
    return dk.build_form(
        ["v0", "v1", "v2", "v3"],
        {"v0": 1.7e308, "v1": 1e-300, "v2": 1e300, "v3": 1.7e308},
        [("v0", "v2", 6e-309), ("v1", "v2", 6e-309), ("v2", "v3", 1e300)],
    )


def brute_force_intertwiners(form1, form2, opts: SearchOptions):
    """Oracle: test every bijection directly against the residual bound.

    Independent of the pruned search: plain permutation enumeration with
    the residual evaluated by matrix products.
    """
    n1, n2 = len(form1.space), len(form2.space)
    if n1 != n2:
        return []
    bound = residual_bound(form1, form2, opts)
    gen1, gen2 = dk.generator(form1), dk.generator(form2)
    accepted = []
    for perm in itertools.permutations(range(n1)):
        tau = {
            form2.space.vertices[i]: form1.space.vertices[perm[i]] for i in range(n2)
        }
        h = {
            y: float(np.sqrt(form1.space.m[perm[i]] / form2.space.m[i]))
            for i, y in enumerate(form2.space.vertices)
        }
        iso = dk.OrderIso(form1.space, form2.space, tau, h)
        if dk.intertwining_residual(iso, gen1, gen2) <= bound:
            accepted.append(iso)
    accepted.sort(key=lambda iso: tuple(iso.tau[y] for y in sorted(iso.tau)))
    return accepted


def tau_signature(iso):
    return tuple(iso.tau[y] for y in sorted(iso.tau))


def lp_nonconstant_excessive(gen, separation: float = 1e-3):
    """Oracle: a nonconstant excessive function found by linear programming.

    Independent of the closed form in ``find_nonconstant_excessive``: for
    each ordered vertex pair (x0, x1) solve L h >= 0, h >= 1, h(x0) = 1,
    h(x1) >= 1 + separation, minimizing sum(h).  Returns the first feasible
    h, or None when every pair is infeasible.
    """
    n = len(gen.space)
    for i0, i1 in itertools.permutations(range(n), 2):
        a_eq = np.zeros((1, n))
        a_eq[0, i0] = 1.0
        bounds = [(1.0, None)] * n
        bounds[i1] = (1.0 + separation, None)
        result = linprog(
            np.ones(n), A_ub=-gen.L, b_ub=np.zeros(n), A_eq=a_eq, b_eq=[1.0],
            bounds=bounds, method="highs",
        )
        if result.status == 0:
            return np.asarray(result.x, dtype=float)
    return None


def _oracle_float(value: float) -> str:
    if not math.isfinite(value):
        raise MalformedInput(f"cannot serialize non-finite number {value}")
    return format(float(value), ".17g")


def oracle_dumps(obj, indent: int = 0) -> str:
    """Oracle: the recursive per-value serializer that ``jsonio.dumps``
    replaced; it takes lists, not arrays."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _oracle_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(item) is float for item in obj):
            items = [_oracle_float(item) for item in obj]
        else:
            items = [oracle_dumps(item, indent + 2) for item in obj]
        return "[\n" + ",\n".join(inner + item for item in items) + "\n" + pad + "]"
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        items = [
            f"{json.dumps(str(key))}: {oracle_dumps(value, indent + 2)}"
            for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(inner + item for item in items) + "\n" + pad + "}"
    raise MalformedInput(f"cannot serialize {type(obj).__name__}")


class OracleGraphForm(dk.GraphForm):
    """Oracle: the per-edge construction loop and the per-edge weight-matrix
    loop that ``GraphForm`` replaced."""

    def __init__(self, space, b, c=0.0):
        self.space = space
        edges = {}
        if isinstance(b, Mapping):
            items = ((u, v, w) for (u, v), w in b.items())
        else:
            items = iter(b)
        for u, v, w in items:
            space.index(u)
            space.index(v)
            if u == v:
                raise SelfLoop(f"self-loop at {u!r}")
            w = float(w)
            if not math.isfinite(w) or w < 0.0:
                raise NegativeWeight(f"edge weight b({u},{v}) = {w} must be finite and >= 0")
            key = (u, v) if u <= v else (v, u)
            if key in edges:
                raise DuplicateEdge(f"duplicate edge {key}")
            edges[key] = w
        self.b = dict(sorted(edges.items()))
        cv = space.vector(c)
        if not np.all(np.isfinite(cv)) or np.any(cv < 0.0):
            raise NegativeWeight("killing weights must be finite and >= 0")
        cv.flags.writeable = False
        self.c = cv

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        n = len(self.space)
        w = np.zeros((n, n))
        for (u, v), value in self.b.items():
            i, j = self.space.index(u), self.space.index(v)
            w[i, j] = w[j, i] = value
        w.flags.writeable = False
        return w


def oracle_graph_from_obj(obj):
    """Oracle: ``jsonio.graph_from_obj`` with the per-edge checks it now runs
    only on failure, building an ``OracleGraphForm``."""
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
    return OracleGraphForm(dk.MeasureSpace(vertices, m), edges, killing)


def construction_outcome(make, *args):
    """What a form constructor leaves: the edge keys in order with the type
    and bits of each weight, the weight and killing bytes, or the type and
    message of the exception it raised."""
    try:
        form = make(*args)
    except Exception as exc:
        return type(exc), str(exc)
    values = list(form.b.values())
    return (
        list(form.b),
        [type(w) for w in values],
        np.array(values, dtype=float).tobytes(),
        form.weight_matrix.tobytes(),
        form.c.tobytes(),
    )


def oracle_triangle_ok(d, bound: float) -> bool:
    """Oracle: the triangle inequality checked one pivot j at a time over the
    whole matrix, every gap d[i,k] - (d[i,j] + d[j,k]) against ``bound``."""
    gap = np.empty_like(d)
    for j in range(len(d)):
        np.add(d[:, j, None], d[j], out=gap)
        np.subtract(d, gap, out=gap)
        if gap.max() > bound:
            return False
    return True


def dense_canonical_distances(form):
    """Oracle: the canonical path metric from a dense n x n graph and an
    undirected shortest-path call.  scipy masks dense entries within about
    1e-8 of zero, so it drops every edge shorter than that."""
    deg = form.degrees
    with np.errstate(over="ignore"):
        weight = np.sqrt(form.space.m / np.where(deg > 0.0, deg, 1.0))
    lengths = np.minimum(weight[:, None], weight[None, :])
    graph = np.where(form.weight_matrix > 0.0, lengths, 0.0)
    return shortest_path(graph, method="D", directed=False, unweighted=False)
