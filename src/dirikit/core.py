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
premultiplied.  W, F, L, S and the F that G inverts (grounded on a
recurrent form) are each one scatter of the edge columns onto zeros
(``_scatter``), the diagonal from the edge sums; none is built from
another.  A form caches, read-only, the degrees, the diagonals of F and L
(which decide whether F and L are finite), ``irreducible``, ``recurrent``,
S = M^{1/2} L M^{-1/2}, its spectrum and G, the one inverse of F.  W, F
and L are built on each read, and no eigenvector is cached.  All values
are immutable and every operation is a pure function.

Construction works on whole arrays: edge columns of ends and weights, one
look-up per endpoint, one pass of array checks and a sort by the string
rank of the vertices; only a faulty edge list is walked edge by edge, to
raise the error of its first fault.  A form keeps index and weight arrays
of its edge keys, in key order; the dict ``b`` is derived data, built on
first read.  A form on another form's edge keys with a new measure,
weights or killing (a Doob partner, a same-graph pair's g2) comes from
``GraphForm._on_keys``; no other module builds a form or writes its
fields; ``irreducible`` is the one connectivity and ``recurrent`` the one
recurrence that callers read.
"""

from __future__ import annotations

import itertools
import math
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
    NotIrreducible,
    NumericOverflow,
    SelfLoop,
    UnknownVertex,
)

VertexFunction = Union[Mapping[str, float], Sequence[float], np.ndarray, float, int]

EdgeInput = Union[Mapping[tuple[str, str], float], Iterable[tuple[str, str, float]]]


def _edge_key(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def _require_finite(matrix: np.ndarray, what: str) -> None:
    if not np.isfinite(matrix).all():
        raise NumericOverflow(
            f"{what} has a non-finite entry: weights or measures out of floating-point range"
        )


def _edges_connected(n: int, i: np.ndarray, j: np.ndarray) -> bool:
    """Whether the graph on n vertices with the edges (i[k], j[k]) is
    connected, from the edge columns alone: each round hooks the root of
    every edge's larger end under the smallest root it meets, then jumps
    pointers until each vertex points at its root, the smallest vertex of
    its tree.  A 4096-vertex path takes one round in vertex order, 7 to 9
    in random orders and 12, under 1 ms, in bit-reversed order."""
    parent = np.arange(n)
    while True:
        ri, rj = parent[i], parent[j]
        split = ri != rj
        if not split.any():
            return n > 0 and bool((parent == 0).all())
        np.minimum.at(parent, np.maximum(ri, rj)[split], np.minimum(ri, rj)[split])
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand


# The vertex cap.  A recurrent certify holds about 9 float arrays of n x n
# at its peak (the grounded Green function of both forms, the resistance
# and canonical metrics and their temporaries; a tracemalloc probe of the
# CLI on a relabelled Sierpinski level 7 gave 9.06 times 8 n^2 bytes):
# 73 n^2 bytes, 1.2 GB at 4096 vertices, where a cap of 2^13 would need
# 4.9 GB, over half of an 8 GB machine.  A transient certify reads the
# edges only: the CLI's certify of a Sierpinski level 7 Doob pair (3282
# vertices, 6561 edges) peaks at 7.0 MB traced, reading included.
MAX_VERTICES = 4096


# The order at or below which the blocked inverse hands a block to
# np.linalg.inv.  On one BLAS thread, 32 to 64 were within noise of each
# other on the grounded Sierpinski L4 and L5 matrices and a random n = 160
# form (L5: 2.0-2.2 ms); 16 was slower on L5 (2.2 ms), and 96 and 128 were
# slower on L5 (2.5 ms) and on the random form (0.66 against 0.49 ms).
_INVERSE_LEAF = 48


def _symmetric_inverse(a: np.ndarray, out: np.ndarray) -> None:
    """Write the inverse of the symmetric matrix ``a`` into ``out``.

    numpy's ``inv`` solves against the identity and spends most of its time
    in triangular solves; this route spends it in GEMMs.  Split at
    k = n // 2 into [[A, B^T], [B, D]]; with X = B A^-1, the Schur complement
    S = D - X B^T and Y = S^-1 X, the inverse is

        [[A^-1 + X^T Y, -Y^T],
         [-Y,            S^-1]],

    A^-1 and S^-1 by recursion, a block of at most _INVERSE_LEAF rows by
    ``np.linalg.inv``, which raises LinAlgError on a singular one.
    """
    n = len(a)
    if n <= _INVERSE_LEAF:
        out[...] = np.linalg.inv(a)
        return
    k = n // 2
    b = a[k:, :k]
    _symmetric_inverse(a[:k, :k], out[:k, :k])
    x = b @ out[:k, :k]
    schur = x @ b.T
    np.subtract(a[k:, k:], schur, out=schur)
    _symmetric_inverse(schur, out[k:, k:])
    del schur  # before the two k x k temporaries below
    minus_y = np.matmul(out[k:, k:], x, out=out[k:, :k])
    np.negative(minus_y, out=minus_y)
    out[:k, k:] = minus_y.T
    out[:k, :k] -= x.T @ minus_y


def _scatter(n: int, i: np.ndarray, j: np.ndarray, diagonal, upper, lower=None) -> np.ndarray:
    """The read-only n x n matrix with ``diagonal`` on its diagonal, upper[k]
    at (i[k], j[k]), lower[k] (upper[k] if None) at (j[k], i[k]), else 0.0."""
    a = np.zeros((n, n))
    a[i, j] = upper
    a[j, i] = upper if lower is None else lower
    np.fill_diagonal(a, diagonal)
    a.flags.writeable = False
    return a


def _require_size(count: int) -> None:
    """InvalidSize when a space of ``count`` vertices exceeds MAX_VERTICES."""
    if count > MAX_VERTICES:
        raise InvalidSize(f"{count} vertices exceed the cap of {MAX_VERTICES}")


def _string_order(vertices: Sequence[str]) -> list[int]:
    """Vertex indices sorted by Python's string order of their ids."""
    return sorted(range(len(vertices)), key=vertices.__getitem__)


def _require_measure(m: np.ndarray) -> None:
    if not 0.0 < m.min() <= m.max() < math.inf:  # NaN fails both
        raise NonPositiveMeasure("vertex measure must be finite and > 0")


def _require_killing(c: np.ndarray) -> None:
    if not 0.0 <= c.min() <= c.max() < math.inf:  # NaN fails both
        raise NegativeWeight("killing weights must be finite and >= 0")


def _raise_first_fault(space: MeasureSpace, edges: Iterable[tuple[str, str, float]]) -> None:
    """Check the edges one at a time and raise the error of the first
    faulty one: unknown vertex, self-loop, bad weight or duplicate key."""
    seen = set()
    for u, v, w in edges:
        space.index(u)  # raises UnknownVertex
        space.index(v)
        if u == v:
            raise SelfLoop(f"self-loop at {u!r}")
        w = float(w)
        if not 0.0 <= w < math.inf:
            raise NegativeWeight(f"edge weight b({u},{v}) = {w} must be finite and >= 0")
        key = _edge_key(u, v)
        if key in seen:
            raise DuplicateEdge(f"duplicate edge {key}")
        seen.add(key)


class MeasureSpace:
    """Ordered finite vertex set with a strictly positive measure."""

    def __init__(self, vertices: Sequence[str], m: VertexFunction):
        vs = tuple(str(v) for v in vertices)
        if not vs:
            raise InvalidSize("a measure space needs at least one vertex")
        _require_size(len(vs))  # before any n x n array exists
        if len(set(vs)) != len(vs):
            raise DuplicateVertex("vertex identifiers must be unique")
        self.vertices = vs
        self._index = {v: i for i, v in enumerate(vs)}
        mv = self.vector(m)
        _require_measure(mv)
        mv.flags.writeable = False
        self.m = mv

    def __len__(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:
        return f"MeasureSpace({len(self)} vertices)"

    def __eq__(self, other) -> bool:
        return other is self or (
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

    @property
    def total_mass(self) -> float:
        with np.errstate(over="ignore"):  # inf past the float range
            return float(np.sum(self.m))


class GraphForm:
    """A Dirichlet form: measure space plus conductances and killing.  The
    form is also its generator: ``L``, its symmetrization ``symmetric`` and
    their spectrum ``spectrum``."""

    _same_graph: GraphForm | None = None  # whose ``irreducible`` this one reads

    def __init__(self, space: MeasureSpace, b: EdgeInput, c: VertexFunction = 0.0):
        mapping = isinstance(b, Mapping)
        edges = ((u, v, w) for (u, v), w in b.items()) if mapping else list(b)
        try:
            if mapping:
                us, vs = zip(*b, strict=True) if b else ((), ())
                ws = b.values()
            else:
                us, vs, ws = zip(*edges, strict=True) if edges else ((), (), ())
        except (TypeError, ValueError):
            _raise_first_fault(space, edges)
            raise
        self._set_columns(space, us, vs, ws, c)

    @classmethod
    def _from_columns(cls, space, us, vs, ws, c: VertexFunction = 0.0) -> GraphForm:
        """The form with edges (us[k], vs[k]) of weight ws[k], each in either
        orientation; the same checks and errors as the constructor."""
        form = cls.__new__(cls)
        form._set_columns(space, us, vs, ws, c)
        return form

    def _set_columns(self, space, us, vs, ws, c) -> None:
        """Build the form on ``space`` from edge columns: the ends are looked
        up in the index, the edge keys ranked by the string order of the ids
        and sorted.  That sort's permutation of the columns, ``_key_order``,
        is kept read-only, so that a form on the same columns reuses it
        (``_same_ends``)."""
        self.space = space
        try:
            ends = np.fromiter(map(space._index.__getitem__, itertools.chain(us, vs)),
                               np.intp, 2 * len(us)).reshape(2, -1)
            w = np.fromiter(map(float, ws), float, len(ws))
        except (KeyError, TypeError, ValueError, OverflowError):
            _raise_first_fault(space, zip(us, vs, ws))
            raise
        # keys (u, v) with u <= v as strings, in sorted order: sort by rank
        n = len(space)
        by_rank = np.array(_string_order(space.vertices),
                           dtype=np.min_scalar_type(n))  # the narrowest that holds n
        ranks = by_rank.argsort()[ends]
        lo, hi = ranks.min(axis=0), ranks.max(axis=0)
        code = lo * n + hi
        order = code.argsort()
        code = code[order]
        if not (((w >= 0.0) & (w < math.inf) & (lo < hi)).all()  # self-loop
                and (code[1:] != code[:-1]).all()):  # duplicate
            _raise_first_fault(space, zip(us, vs, ws))
        # vertex indices (intp, the fastest to index with) and weights of
        # the edge keys, in key order
        self.edge_indices = by_rank[np.array(np.divmod(code, n))].astype(np.intp)
        self.weights = w[order]
        # the narrowest type that holds the edge count, as for the ranks
        self._key_order = order.astype(np.min_scalar_type(len(order)))
        cv = space.vector(c)
        _require_killing(cv)
        for array in (self.edge_indices, self.weights, self._key_order, cv):
            array.flags.writeable = False
        self.c = cv

    def _on_keys(self, m: np.ndarray, weights: np.ndarray, c: np.ndarray) -> GraphForm:
        """The form on this form's vertex ids, index, edge keys and key
        order with the measure m, the key-order weights and the killing c:
        checked arrays, made read-only, not copied.  It reads this form's
        connectivity (``_same_graph``) when the positive patterns are equal."""
        form = GraphForm.__new__(GraphForm)
        form.space = MeasureSpace.__new__(MeasureSpace)
        form.space.vertices, form.space._index = self.space.vertices, self.space._index
        form.space.m, form.weights, form.c = m, weights, c
        for array in (m, weights, c):
            array.flags.writeable = False
        form.edge_indices, form._key_order = self.edge_indices, self._key_order
        if (weights > 0.0).tobytes() == (self.weights > 0.0).tobytes():  # the cheapest test
            form._same_graph = self
        return form

    def _same_ends(self, m, us, vs, ws, c) -> GraphForm:
        """The form ``_on_keys`` builds with the measure m, edges (us[k],
        vs[k]) of weight ws[k] and killing c, where us and vs are the
        columns this form was built from and ws holds ints and floats.  Of
        the checks of ``_from_columns`` only those of m, ws and c can fail,
        in its order and with its errors: NonPositiveMeasure, OverflowError
        for an int past the float range, NegativeWeight at the first bad
        weight in column order, NegativeWeight for the killing."""
        mv = np.array(m, dtype=float)
        _require_measure(mv)
        w = np.array(ws, dtype=float)
        if not ((w >= 0.0) & (w < math.inf)).all():
            _raise_first_fault(self.space, zip(us, vs, ws))
        cv = self.space.vector(c)
        _require_killing(cv)
        return self._on_keys(mv, w[self._key_order], cv)

    def __repr__(self) -> str:
        return f"GraphForm({len(self.space)} vertices, {len(self.weights)} edges)"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GraphForm)
            and self.space == other.space
            and np.array_equal(self.edge_indices, other.edge_indices)
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.c, other.c)
        )

    def edge_ends(self) -> list[list[str]]:
        """The lists of first and of second ends of the edge keys, in key order."""
        return np.array(self.space.vertices, dtype=object)[self.edge_indices].tolist()

    @cached_property
    def b(self) -> dict[tuple[str, str], float]:
        """Conductance per edge key (u, v), u <= v as strings, in key order."""
        return dict(zip(zip(*self.edge_ends()), self.weights.tolist()))

    @property
    def weight_matrix(self) -> np.ndarray:
        """Symmetric conductance matrix W with zero diagonal, built on each read."""
        return _scatter(len(self.space), *self.edge_indices, 0.0, self.weights)

    @cached_property
    def irreducible(self) -> bool:
        """Whether the positive-conductance graph is connected, from the
        edge columns; read from ``_same_graph`` when that is set."""
        if self._same_graph is not None:
            return self._same_graph.irreducible
        i, j = self.edge_indices
        positive = self.weights > 0.0
        return _edges_connected(len(self.space), i[positive], j[positive])

    @cached_property
    def recurrent(self) -> bool:
        """Whether the form annihilates constants, i.e. has no killing: no
        entry of c is nonzero (-0.0 is zero, the least subnormal is not)."""
        return not self.c.any()

    @cached_property
    def degrees(self) -> np.ndarray:
        """deg(x) = sum_y b(x, y), one edge sum: the weights at each first
        end, plus those at each second end, in key order."""
        n = len(self.space)
        i, j = self.edge_indices
        with np.errstate(over="ignore"):  # inf past the float range
            d = np.bincount(i, self.weights, n) + np.bincount(j, self.weights, n)
        d.flags.writeable = False
        return d

    @cached_property
    def form_diagonal(self) -> np.ndarray:
        """The diagonal deg + c of the form matrix F; NumericOverflow when an
        entry is not finite, which is exactly when F has a non-finite entry,
        as F is -b(x, y) off the diagonal."""
        with np.errstate(over="ignore"):
            f = self.degrees + self.c
        _require_finite(f, "form matrix")
        f.flags.writeable = False
        return f

    @cached_property
    def generator_diagonal(self) -> np.ndarray:
        """The diagonal (deg + c) / m of L, the largest entry of each row of
        |L| (b(x, y) <= deg(x) survives rounding, which is monotone);
        NumericOverflow when an entry is not finite, which is exactly when L
        has a non-finite entry, after ``form_diagonal``'s check."""
        with np.errstate(over="ignore"):
            d = self.form_diagonal / self.space.m
        _require_finite(d, "generator")
        d.flags.writeable = False
        return d

    @property
    def form_matrix(self) -> np.ndarray:
        """Measure-free Gram matrix F = diag(deg + c) - W, F[i,j] = Q(e_i, e_j),
        built on each read; NumericOverflow when a diagonal entry is not
        finite (``form_diagonal``)."""
        return _scatter(len(self.space), *self.edge_indices, self.form_diagonal,
                        0.0 - self.weights)

    @property
    def L(self) -> np.ndarray:
        """The generator L = M^{-1} F, built on each read; NumericOverflow
        when an entry is not finite (``generator_diagonal``)."""
        i, j = self.edge_indices
        f, m = 0.0 - self.weights, self.space.m
        return _scatter(len(self.space), i, j, self.generator_diagonal, f / m[i], f / m[j])

    @cached_property
    def symmetric(self) -> np.ndarray:
        """S = M^{1/2} L M^{-1/2} from the edge columns: on the edge {x, y}
        the mean of L[x,y] sqrt(m(x))/sqrt(m(y)) and L[y,x] sqrt(m(y))/sqrt(m(x)),
        bitwise symmetric, 0.0 off the edges and on zero weights, whatever the
        measures.  The diagonal is 0.5 (d + d), d that of L: inf past half the
        float range.  NumericOverflow when one of these n + |E| values is not finite."""
        d = self.generator_diagonal  # NumericOverflow first
        i, j = self.edge_indices
        f, m = 0.0 - self.weights, self.space.m
        sqrt_m = np.sqrt(m)
        with np.errstate(over="ignore", invalid="ignore"):
            values = 0.5 * (f / m[i] * (sqrt_m[i] / sqrt_m[j])
                            + f / m[j] * (sqrt_m[j] / sqrt_m[i]))
            diagonal = 0.5 * (d + d)
        values[self.weights == 0.0] = 0.0  # not 0 x inf where the measures spread
        _require_finite(np.concatenate((diagonal, values)), "symmetrized generator")
        return _scatter(len(self.space), i, j, diagonal, values)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The eigenvalues of L, ascending: those of ``symmetric`` from
        ``eigvalsh``, which builds no eigenvectors."""
        w = np.linalg.eigvalsh(self.symmetric)
        w.flags.writeable = False
        return w

    @cached_property
    def green(self) -> np.ndarray:
        """The Green function of the form matrix F: F^-1 on a transient form,
        entrywise positive; on a recurrent one, where F is singular, F grounded
        at its first vertex of largest degree and inverted, zero on that row
        and column.  NotIrreducible unless the form is, before anything is
        inverted (rounding leaves the pivots of a singular matrix tiny but
        nonzero, and its inverse finite garbage), and NumericOverflow when
        the matrix is singular in floating point or the inverse is not
        finite; only a recurrent form's messages say "grounded".
        ``_symmetric_inverse`` inverts by 2 x 2 blocks and Schur complements.
        At most _INVERSE_LEAF rows take one ``np.linalg.inv`` call and keep
        its bytes; more change in their last bits with the block split.
        """
        grounded = "grounded " if self.recurrent else ""
        if not self.irreducible:
            raise NotIrreducible(f"the {grounded}Green function needs a connected conductance graph")
        n = len(self.space)
        p = int(np.argmax(self.degrees)) if self.recurrent else n  # n: no vertex grounded
        i, j = self.edge_indices
        off = (i != p) & (j != p)  # the edges off row and column p
        i, j, d = i[off], j[off], self.form_diagonal
        # F without row and column p: the vertices after p move up one place
        matrix = _scatter(n - (p < n), i - (i > p), j - (j > p),
                          np.concatenate((d[:p], d[p + 1:])), 0.0 - self.weights[off])
        g = np.empty_like(matrix)
        try:
            with np.errstate(all="ignore"):  # a non-finite entry is refused below
                _symmetric_inverse(matrix, g)
        except np.linalg.LinAlgError:
            raise NumericOverflow(f"{grounded}form matrix is singular in floating point") from None
        del matrix  # before the n x n result
        if p < n:  # row and column p back in, as zeros
            inverse, g = g, np.zeros((n, n))
            g[:p, :p], g[:p, p + 1:] = inverse[:p, :p], inverse[:p, p:]
            g[p + 1:, :p], g[p + 1:, p + 1:] = inverse[p:, :p], inverse[p:, p:]
        _require_finite(g, f"{grounded}Green function")
        g.flags.writeable = False
        return g


def build_form(
    vertices: Sequence[str],
    m: VertexFunction,
    edges: EdgeInput = (),
    killing: VertexFunction = 0.0,
) -> GraphForm:
    """Validate and construct a form from raw vertex, measure and weight data."""
    space = MeasureSpace(vertices, m)
    return GraphForm(space, edges, killing)


def generator(form: GraphForm) -> GraphForm:
    """The form itself, once L is checked finite (``form.generator_diagonal``)."""
    form.generator_diagonal
    return form


# ---------------------------------------------------------------------------
# graph families


def generate(family: str, n: int, *, conductance: float = 1.0, measure: float = 1.0) -> GraphForm:
    """Build a standard family instance with uniform weights.

    Families: ``path`` and ``complete`` (n >= 1 vertices), ``cycle``
    (n >= 3 vertices) and ``sierpinski`` (n >= 0 is the subdivision level;
    the level-n graph has 3 (3^n + 1) / 2 vertices).  A size past
    MAX_VERTICES is refused before any edge is built.
    """
    if family in ("path", "cycle", "complete"):
        _require_size(n)
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
        if n > _SIERPINSKI_MAX_LEVEL:
            raise InvalidSize(f"sierpinski level {n} exceeds the cap of {MAX_VERTICES} vertices")
        return _sierpinski(n, conductance, measure)
    else:
        raise InvalidSize(f"unknown family {family!r}")
    return build_form(names, measure, edges)


# Corner positions on an integer lattice; any affine image of a triangle
# gives the same combinatorics, and integer coordinates make the gluing of
# subdivided cells exact.
_TRIANGLE = ((0, 0), (2, 0), (1, 1))

# the highest level whose 3 (3^n + 1) / 2 vertices fit under MAX_VERTICES
_SIERPINSKI_MAX_LEVEL = max(n for n in range(16) if 3 * (3**n + 1) // 2 <= MAX_VERTICES)


def _sierpinski(level: int, conductance: float, measure: float) -> GraphForm:
    """The level-n gasket with canonical "w.corner" vertex ids.

    A cell is addressed by a word w over {0,1,2}; corner c of cell w sits at
    sum_k 2^(level-1-k) * P[w_k] + P[c].  Corners shared between cells land
    on the same lattice point; the id of a vertex is the lexicographically
    smallest "w.c" string among its representatives, which is the first one
    met since words and corners are walked in lexicographic order, so every
    level is labelled deterministically.
    """
    ids: dict[tuple[int, int], str] = {}
    cells = []
    for word in itertools.product("012", repeat=level):
        bx = sum(2 ** (level - 1 - k) * _TRIANGLE[int(d)][0] for k, d in enumerate(word))
        by = sum(2 ** (level - 1 - k) * _TRIANGLE[int(d)][1] for k, d in enumerate(word))
        cell = [(bx + px, by + py) for px, py in _TRIANGLE]
        for c, point in enumerate(cell):
            ids.setdefault(point, f"{''.join(word)}.{c}")
        cells.append(cell)
    edges: dict[tuple[str, str], float] = {}
    for cell in cells:
        for p, q in itertools.combinations(cell, 2):
            edges[_edge_key(ids[p], ids[q])] = conductance
    names = sorted(ids.values())
    return build_form(names, measure, [(u, v, w) for (u, v), w in sorted(edges.items())])


def sierpinski_corners(level: int) -> tuple[str, str, str]:
    """Ids of the three outer corner vertices of the level-n gasket."""
    if level < 0:
        raise InvalidSize("sierpinski level must be >= 0")
    return tuple(f"{str(c) * level}.{c}" for c in range(3))
