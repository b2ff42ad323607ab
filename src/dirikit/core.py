"""Finite weighted-graph Dirichlet spaces.

A space is a finite vertex set carrying a strictly positive measure ``m``.
A form on it is given by symmetric edge conductances ``b`` (one weight per
unordered pair, no self-loops) and nonnegative killing weights ``c``.  For
vertex functions f, g it evaluates to

    Q(f, g) = sum_{{x,y}} b(x,y) (f(x) - f(y)) (g(x) - g(y))
              + sum_x c(x) f(x) g(x)

with one term per unordered edge.  The generator is the matrix L with
L[x,y] = -b(x,y)/m(x) off the diagonal and L[x,x] = (deg(x) + c(x))/m(x),
where deg(x) = sum_y b(x,y); it satisfies <Lf, g>_m = Q(f, g).

Measure, conductances and killing are stored separately and never
premultiplied; derived matrices are computed on first use and cached on
the form or its generator.  All values are immutable after construction
and every operation is a pure function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateEdge,
    DuplicateVertex,
    InvalidSize,
    NegativeWeight,
    NonPositiveMeasure,
    NumericOverflow,
    SelfLoop,
    UnknownVertex,
)

VertexFunction = Union[Mapping[str, float], Sequence[float], np.ndarray, float, int]

EdgeInput = Union[Mapping[tuple[str, str], float], Iterable[tuple[str, str, float]]]


def _edge_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def _require_finite(matrix: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(matrix)):
        raise NumericOverflow(
            f"{what} has a non-finite entry: weights or measures out of floating-point range"
        )


class MeasureSpace:
    """Ordered finite vertex set with a strictly positive measure."""

    def __init__(self, vertices: Sequence[str], m: VertexFunction):
        vs = tuple(str(v) for v in vertices)
        if not vs:
            raise InvalidSize("a measure space needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise DuplicateVertex("vertex identifiers must be unique")
        self.vertices = vs
        self._index = {v: i for i, v in enumerate(vs)}
        mv = self.vector(m)
        if not np.all(np.isfinite(mv)) or np.any(mv <= 0.0):
            raise NonPositiveMeasure("vertex measure must be finite and > 0")
        mv.flags.writeable = False
        self.m = mv

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return f"MeasureSpace({len(self)} vertices)"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MeasureSpace)
            and self.vertices == other.vertices
            and np.array_equal(self.m, other.m)
        )

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    def vector(self, values: VertexFunction) -> np.ndarray:
        """Coerce a constant, mapping or sequence to an array in vertex order."""
        n = len(self.vertices)
        if isinstance(values, (int, float, np.floating, np.integer)):
            return np.full(n, float(values))
        if isinstance(values, Mapping):
            missing = [v for v in self.vertices if v not in values]
            if missing:
                raise DimensionMismatch(f"function undefined at {missing[0]!r}")
            return np.array([float(values[v]) for v in self.vertices])
        arr = np.asarray(values, dtype=float)
        if arr.shape != (n,):
            raise DimensionMismatch(
                f"expected a function on {n} vertices, got shape {arr.shape}"
            )
        return arr.copy()

    def inner(self, f: np.ndarray, g: np.ndarray) -> float:
        """m-weighted inner product <f, g>_m."""
        return float(np.sum(self.m * f * g))

    def norm(self, f: np.ndarray) -> float:
        return math.sqrt(self.inner(f, f))

    @property
    def total_mass(self) -> float:
        with np.errstate(over="ignore"):  # inf past the float range
            return float(np.sum(self.m))

    def measure_of(self, v: str) -> float:
        return float(self.m[self.index(v)])


class GraphForm:
    """A Dirichlet form: measure space plus conductances and killing."""

    def __init__(self, space: MeasureSpace, b: EdgeInput, c: VertexFunction = 0.0):
        self.space = space
        edges: dict[tuple[str, str], float] = {}
        if isinstance(b, Mapping):
            items: Iterable[tuple[str, str, float]] = ((u, v, w) for (u, v), w in b.items())
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
            key = _edge_key(u, v)
            if key in edges:
                raise DuplicateEdge(f"duplicate edge {key}")
            edges[key] = w
        self.b = dict(sorted(edges.items()))
        cv = space.vector(c)
        if not np.all(np.isfinite(cv)) or np.any(cv < 0.0):
            raise NegativeWeight("killing weights must be finite and >= 0")
        cv.flags.writeable = False
        self.c = cv

    def __repr__(self) -> str:
        return f"GraphForm({len(self.space)} vertices, {len(self.b)} edges)"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GraphForm)
            and self.space == other.space
            and self.b == other.b
            and np.array_equal(self.c, other.c)
        )

    def edge_weight(self, u: str, v: str) -> float:
        return self.b.get(_edge_key(u, v), 0.0)

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """Symmetric conductance matrix W with zero diagonal."""
        n = len(self.space)
        w = np.zeros((n, n))
        for (u, v), value in self.b.items():
            i, j = self.space.index(u), self.space.index(v)
            w[i, j] = w[j, i] = value
        w.flags.writeable = False
        return w

    @cached_property
    def degrees(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # inf past the float range
            d = self.weight_matrix.sum(axis=1)
        d.flags.writeable = False
        return d

    @cached_property
    def form_matrix(self) -> np.ndarray:
        """Measure-free Gram matrix F with F[i,j] = Q(e_i, e_j); NumericOverflow
        when a diagonal entry is not finite."""
        with np.errstate(over="ignore"):
            f = np.diag(self.degrees + self.c) - self.weight_matrix
        _require_finite(f, "form matrix")
        f.flags.writeable = False
        return f

    @cached_property
    def generator(self) -> Generator:
        """The generator L = M^{-1} (diag(deg + c) - W); NumericOverflow when
        an entry is not finite."""
        with np.errstate(over="ignore"):
            l_matrix = self.form_matrix / self.space.m[:, None]
        _require_finite(l_matrix, "generator")
        return Generator(l_matrix, self.space)

    @cached_property
    def green(self) -> np.ndarray:
        """Inverse of the form matrix grounded at its first vertex of largest
        degree, zero on that row and column; NumericOverflow unless finite."""
        keep = np.arange(len(self.space)) != np.argmax(self.degrees)
        g = np.zeros(self.form_matrix.shape)
        try:
            g[np.ix_(keep, keep)] = np.linalg.inv(self.form_matrix[np.ix_(keep, keep)])
        except np.linalg.LinAlgError:
            raise NumericOverflow("grounded form matrix is singular in floating point") from None
        _require_finite(g, "grounded Green function")
        g.flags.writeable = False
        return g


@dataclass(eq=False)
class SpectralData:
    """Eigenvalues (ascending) and an m-orthonormal eigenvector basis."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns; <u_i, u_j>_m = delta_ij


@dataclass(eq=False)
class Generator:
    """Self-adjoint generator of a form, as a matrix on L^2(m)."""

    L: np.ndarray
    space: MeasureSpace

    def __post_init__(self):
        self.L.flags.writeable = False

    @cached_property
    def spectral(self) -> SpectralData:
        """Eigendecomposition via the symmetric matrix M^{1/2} L M^{-1/2};
        NumericOverflow when that matrix has a non-finite entry."""
        sqrt_m = np.sqrt(self.space.m)
        with np.errstate(over="ignore", invalid="ignore"):
            sym = self.L * (sqrt_m[:, None] / sqrt_m[None, :])
            sym = 0.5 * (sym + sym.T)
        _require_finite(sym, "symmetrized generator")
        w, v = np.linalg.eigh(sym)
        return SpectralData(w, v / sqrt_m[:, None])


def build_form(
    vertices: Sequence[str],
    m: VertexFunction,
    edges: EdgeInput = (),
    killing: VertexFunction = 0.0,
) -> GraphForm:
    """Validate and construct a form from raw vertex, measure and weight data."""
    space = MeasureSpace(vertices, m)
    return GraphForm(space, edges, killing)


def evaluate(form: GraphForm, f: VertexFunction, g: VertexFunction | None = None) -> float:
    """Evaluate the bilinear form Q(f, g); Q(f, f) when g is omitted."""
    fv = form.space.vector(f)
    gv = fv if g is None else form.space.vector(g)
    df = fv[:, None] - fv[None, :]
    dg = gv[:, None] - gv[None, :]
    # 0.5 compensates for each unordered edge appearing twice in W
    return float(0.5 * np.sum(form.weight_matrix * df * dg) + np.sum(form.c * fv * gv))


def generator(form: GraphForm) -> Generator:
    """The generator L = M^{-1} (diag(deg + c) - W) of a form, cached on it."""
    return form.generator


def form_norm(form: GraphForm, f: VertexFunction) -> float:
    """The form norm (Q(f) + ||f||_2^2)^{1/2} on L^2(m)."""
    fv = form.space.vector(f)
    return math.sqrt(evaluate(form, fv) + form.space.inner(fv, fv))


# ---------------------------------------------------------------------------
# graph families


def generate(family: str, n: int, *, conductance: float = 1.0, measure: float = 1.0) -> GraphForm:
    """Build a standard family instance with uniform weights.

    Families: ``path`` and ``complete`` (n >= 1 vertices), ``cycle``
    (n >= 3 vertices) and ``sierpinski`` (n >= 0 is the subdivision level;
    the level-n graph has 3 (3^n + 1) / 2 vertices).
    """
    if family == "path":
        if n < 1:
            raise InvalidSize("path needs n >= 1")
        names = [f"v{i}" for i in range(n)]
        edges = [(names[i], names[i + 1], conductance) for i in range(n - 1)]
    elif family == "cycle":
        if n < 3:
            raise InvalidSize("cycle needs n >= 3 (smaller n would need self-loops or duplicate edges)")
        names = [f"v{i}" for i in range(n)]
        edges = [(names[i], names[(i + 1) % n], conductance) for i in range(n)]
    elif family == "complete":
        if n < 1:
            raise InvalidSize("complete graph needs n >= 1")
        names = [f"v{i}" for i in range(n)]
        edges = [(u, v, conductance) for u, v in itertools.combinations(names, 2)]
    elif family == "sierpinski":
        if n < 0:
            raise InvalidSize("sierpinski level must be >= 0")
        return _sierpinski(n, conductance, measure)
    else:
        raise InvalidSize(f"unknown family {family!r}")
    return build_form(names, measure, edges)


# Corner positions on an integer lattice; any affine image of a triangle
# gives the same combinatorics, and integer coordinates make the gluing of
# subdivided cells exact.
_TRIANGLE = ((0, 0), (2, 0), (1, 1))


def _sierpinski_vertex_ids(level: int) -> dict[tuple[int, int], str]:
    """Map lattice points of the level-n gasket to canonical "w.corner" ids.

    A cell is addressed by a word w over {0,1,2}; corner c of cell w sits at
    sum_k 2^(level-1-k) * P[w_k] + P[c].  Corners shared between cells land
    on the same lattice point; the id of a vertex is the lexicographically
    smallest "w.c" string among its representatives, so every level is
    labelled deterministically.
    """
    ids: dict[tuple[int, int], str] = {}
    for word in itertools.product("012", repeat=level):
        bx = sum(2 ** (level - 1 - k) * _TRIANGLE[int(d)][0] for k, d in enumerate(word))
        by = sum(2 ** (level - 1 - k) * _TRIANGLE[int(d)][1] for k, d in enumerate(word))
        for c in range(3):
            point = (bx + _TRIANGLE[c][0], by + _TRIANGLE[c][1])
            name = f"{''.join(word)}.{c}"
            if point not in ids or name < ids[point]:
                ids[point] = name
    return ids


def _sierpinski(level: int, conductance: float, measure: float) -> GraphForm:
    ids = _sierpinski_vertex_ids(level)
    edges: dict[tuple[str, str], float] = {}
    for word in itertools.product("012", repeat=level):
        bx = sum(2 ** (level - 1 - k) * _TRIANGLE[int(d)][0] for k, d in enumerate(word))
        by = sum(2 ** (level - 1 - k) * _TRIANGLE[int(d)][1] for k, d in enumerate(word))
        corners = [ids[(bx + px, by + py)] for px, py in _TRIANGLE]
        for u, v in itertools.combinations(corners, 2):
            edges[_edge_key(u, v)] = conductance
    names = sorted(ids.values())
    return build_form(names, measure, [(u, v, w) for (u, v), w in sorted(edges.items())])


def sierpinski_corners(level: int) -> tuple[str, str, str]:
    """Ids of the three outer corner vertices of the level-n gasket."""
    if level < 0:
        raise InvalidSize("sierpinski level must be >= 0")
    return tuple(f"{str(c) * level}.{c}" for c in range(3))
