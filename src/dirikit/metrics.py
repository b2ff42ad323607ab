"""Resistance and intrinsic metrics on finite Dirichlet spaces.

Effective resistance is computed from the measure-free form matrix
B = diag(deg) - W (killing must be absent) through its Green function G,
the inverse of B grounded at one vertex: R(x, y) = G[x,x] + G[y,y] - 2 G[x,y],
which agrees with the variational description

    R(x, y) = sup { |f(x) - f(y)|^2 : E(f) <= 1 }.

No eigenvalue is cut off, so a weak bottleneck keeps its large resistance;
accuracy is limited by the rounding of the diagonal of B, where each
deg(x) keeps only the leading digits of the conductances summed into it.

A pseudo-metric d is *intrinsic* for a form when the per-vertex jump
energy of d is dominated by the measure:

    sum_y b(x, y) d(x, y)^2 <= m(x)   for every vertex x.

This per-vertex inequality is the implemented definition of membership in
the intrinsic family; it is sufficient for the distance functions
d(., A) ^ T because |d_A(x) - d_A(y)| <= d(x, y).  The intrinsic-family
certificate probes the family with scalings c d of the canonical metric d,
whose jump energy is c^2 times that of d, so one energy per form decides
every sample.

The canonical intrinsic metric is a shortest-path metric on the sparse
edge graph, so an edge keeps any positive finite length: a dense graph
input would drop every edge shorter than about 1e-8, the tolerance with
which scipy reads a dense entry as zero.  The certificate reads that metric
on edges only, where two exact shortcut tests settle nearly every entry
and a numpy Dijkstra the rest.  scipy is imported only where the full
matrix is built, so every other path loads numpy only, whatever the data
(tests/test_imports.py checks this).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from .core import GraphForm, _require_finite
from .errors import (
    DimensionMismatch,
    InvalidMetric,
    NotIrreducible,
    NotRecurrent,
    NumericOverflow,
    SpaceMismatch,
)
from .orderiso import OrderIso, require_intertwining
from .report import VerificationReport
from .spectral import is_recurrent
from .tolerances import DEFAULT_TOL, Tolerance


_TILE_ROWS = 64


def _triangle_gap(d: np.ndarray, a: int, b: int) -> float:
    """Worst gap d[i,k] - (d[i,j] + d[j,k]) over every pivot j, for the rows
    a <= i < b and the columns k >= a.

    Rounded subtraction never grows with its subtrahend, so the worst gap
    of (i, k) is d[i,k] minus the min-plus product min_j (d[i,j] + d[j,k]),
    bit for bit; the tile keeps two (b - a) x (n - a) buffers.
    """
    rows, cols = d[a:b], d[:, a:]
    best = rows[:, :1] + cols[0]
    sums = np.empty_like(best)
    for j in range(1, len(d)):
        np.add(rows[:, j, None], cols[j], out=sums)
        np.minimum(best, sums, out=best)
    np.subtract(rows[:, a:], best, out=best)
    return best.max()


def _require_entries(d: np.ndarray) -> None:
    if not np.all(np.isfinite(d)) or np.any(d < 0.0):
        raise InvalidMetric("entries must be finite and >= 0")


@dataclass(eq=False)
class PseudoMetric:
    """Symmetric nonnegative vertex-pair matrix with the triangle inequality,
    validated to the tolerance ``tol`` (not stored), in O(n^3) time: the
    constructor is for outside input, and the library's own metrics come
    from ``_trusted``."""

    vertices: tuple[str, ...]
    d: np.ndarray
    tol: InitVar[Tolerance] = DEFAULT_TOL

    def __post_init__(self, tol: Tolerance):
        self.vertices = tuple(self.vertices)
        d = np.array(self.d, dtype=float)
        n = len(self.vertices)
        if d.shape != (n, n):
            raise DimensionMismatch(f"metric shape {d.shape} does not match {n} vertices")
        _require_entries(d)
        bound = tol.bound(float(np.max(d)))
        # both checks run on tiles of rows a <= i < b and columns k >= a
        tiles = [(a, min(a + _TILE_ROWS, n)) for a in range(0, n, _TILE_ROWS)]
        asymmetry = max(np.max(np.abs(d[a:b, a:] - d[a:, a:b].T)) for a, b in tiles)
        if asymmetry > bound or np.max(np.abs(np.diag(d))) > bound:
            raise InvalidMetric("metric must be symmetric with zero diagonal")
        # triangle inequality d[i,k] <= d[i,j] + d[j,k] on the entries k >= i
        # of d, and of d.T unless d is bitwise symmetric (IEEE addition
        # commutes, so entry (k, i) then repeats entry (i, k))
        for side in (d,) if asymmetry == 0.0 else (d, np.ascontiguousarray(d.T)):
            for a, b in tiles:
                if _triangle_gap(side, a, b) > bound:
                    raise InvalidMetric("triangle inequality violated")
        d.flags.writeable = False
        self.d = d

    @classmethod
    def _trusted(cls, vertices: tuple[str, ...], d: np.ndarray) -> "PseudoMetric":
        """A metric by theorem or by construction, on a fresh float matrix
        with a zero diagonal and its source's symmetry, checked only for
        finite nonnegative entries: a resistance metric (Kigami, Analysis on
        Fractals, 2001), a path metric, or a multiple or a permutation of a
        metric."""
        _require_entries(d)
        metric = cls.__new__(cls)
        d.flags.writeable = False
        metric.vertices, metric.d = vertices, d
        return metric

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PseudoMetric)
            and self.vertices == other.vertices
            and np.array_equal(self.d, other.d)
        )

    def scaled(self, factor: float) -> "PseudoMetric":
        return PseudoMetric._trusted(self.vertices, factor * self.d)


class IntrinsicCheck(NamedTuple):
    ok: bool
    slack: np.ndarray


def _resistance_green(form: GraphForm) -> np.ndarray:
    """Grounded Green function of the measure-free form matrix, cached per form."""
    if not form.irreducible:
        raise NotIrreducible("effective resistance needs a connected conductance graph")
    if not is_recurrent(form):
        raise NotRecurrent("effective resistance is undefined in the presence of killing")
    return form.green


def effective_resistance(form: GraphForm, x: str, y: str) -> float:
    """Effective resistance between two vertices; NumericOverflow when it
    leaves the floating-point range."""
    green = _resistance_green(form)
    i, j = form.space.index(x), form.space.index(y)
    with np.errstate(over="ignore", invalid="ignore"):
        r = float(green[i, i] + green[j, j] - 2.0 * green[i, j])
    if not math.isfinite(r):
        raise NumericOverflow(
            f"effective resistance R({x}, {y}) is not finite: "
            "weights or measures out of floating-point range"
        )
    return r


def resistance_matrix(form: GraphForm) -> PseudoMetric:
    """The full resistance metric of a connected killing-free form, exactly
    symmetric with a zero diagonal; NumericOverflow when an entry leaves the
    floating-point range."""
    green = _resistance_green(form)
    diag = np.diag(green)
    # R = max(0.5 (r + r^T), 0) with r = (diag_i + diag_j) - 2 G, in
    # two n x n buffers; entries past the float range come out inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.add(diag[:, None], diag[None, :])
        d = np.multiply(green, 2.0)
        np.subtract(r, d, out=r)
        np.add(r, r.T, out=d)
    del r
    np.multiply(d, 0.5, out=d)
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    _require_finite(d, "resistance matrix")
    return PseudoMetric._trusted(form.space.vertices, d)


def verify_resistance_isometry(
    iso: OrderIso, form1: GraphForm, form2: GraphForm, tol: Tolerance = DEFAULT_TOL
) -> VerificationReport:
    """Certify that an intertwiner is a scaled isometry for the resistances.

    For recurrent irreducible intertwined forms the scaling h is a constant
    alpha and the resistance metrics satisfy

        alpha^2 R1(tau(y), tau(z)) = beta R2(y, z)

    for all target vertices y, z, with beta the operator constant.  When
    the total masses agree, alpha equals sqrt(beta) and tau is a plain
    isometry; that special case is checked separately when it applies.
    The special case compares R1(tau(.), tau(.)) with R2 alone: with two
    or more vertices, that and ``resistance_isometry`` imply alpha^2 = beta,
    and a term |alpha - sqrt(beta)| would be in the units of h, not of R.
    """
    if not (is_recurrent(form1) and is_recurrent(form2)):
        raise NotRecurrent("resistance comparison requires recurrent forms")
    require_intertwining(iso, form1, form2, tol)
    alpha = float(np.mean(iso.h_values))
    r1 = resistance_matrix(form1).d
    r2 = resistance_matrix(form2).d
    idx = iso.tau_indices
    r1_tau = r1[idx][:, idx]

    report = VerificationReport()
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing h^2 is a FAIL
        beta = iso.beta
        lhs = np.square(alpha) * r1_tau  # x**2 of a float raises past the float range
        rhs = beta * r2
        # one scale, the largest resistance, for every entry: the resistances
        # are accurate to a fraction of it, not of each entry
        scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
        report.compare(
            "resistance_isometry", lhs, rhs, scale, tol, detail=f"alpha={alpha!r} beta={beta!r}"
        )
    mass1 = form1.space.total_mass
    mass2 = form2.space.total_mass
    if abs(mass2 / mass1 - 1.0) <= tol.bound(1.0):
        report.compare("equal_mass_isometry", r1_tau, r2, max(np.max(r1), np.max(r2)), tol)
    else:
        report.skip("equal_mass_isometry", "total masses differ")
    return report


def _positive_edges(form: GraphForm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ends i, j and conductances of the edges with b > 0, in key order."""
    positive = form.weights > 0.0
    i, j = form.edge_indices[:, positive]
    return i, j, form.weights[positive]


def _jump_energy(form: GraphForm, d_ij: np.ndarray, d_ji: np.ndarray) -> np.ndarray:
    """Per-vertex jump energy sum_y b(x,y) d(x,y)^2 from d(i, j) and d(j, i)
    on the edges (i, j) of ``_positive_edges``.  The terms fill an n x n
    zero matrix that is summed by rows, so the energy has the bits of the
    sum over a full matrix row; off the edges b = 0, even where d^2 would
    overflow to inf."""
    i, j, w = _positive_edges(form)
    terms = np.zeros((len(form.space),) * 2)
    with np.errstate(over="ignore"):
        terms[i, j] = w * d_ij**2
        terms[j, i] = w * d_ji**2
    return terms.sum(axis=1)


def _in_family(slack: np.ndarray, m: np.ndarray, tol: Tolerance) -> bool:
    """Membership in the intrinsic family from the slack m(x) - energy(x):
    it may dip below zero by ``tol.rel`` times m(x) and no more, since an
    absolute floor would admit every metric on a small enough measure."""
    return bool(np.all(slack >= -tol.bound(m)))


def is_intrinsic(
    form: GraphForm, metric: PseudoMetric, tol: Tolerance = DEFAULT_TOL
) -> IntrinsicCheck:
    """Check the per-vertex bound sum_y b(x,y) d(x,y)^2 <= m(x).

    Returns the verdict together with the slack vector
    m(x) - sum_y b(x,y) d(x,y)^2 for diagnostics.
    """
    if metric.vertices != form.space.vertices:
        raise DimensionMismatch("metric does not live on the form's vertex set")
    i, j, _ = _positive_edges(form)
    slack = form.space.m - _jump_energy(form, metric.d[i, j], metric.d[j, i])
    return IntrinsicCheck(_in_family(slack, form.space.m, tol), slack)


def _edge_lengths(form: GraphForm) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ends i, j of the positive edges and their canonical lengths
    sigma(i, j) = min(sqrt(m(i)/deg(i)), sqrt(m(j)/deg(j)))."""
    if not form.irreducible:
        raise NotIrreducible("path metric needs a connected conductance graph")
    deg = form.degrees
    # an overflowing weight is inf and min() drops it beside a finite one
    with np.errstate(over="ignore"):
        weight = np.sqrt(form.space.m / np.where(deg > 0.0, deg, 1.0))
    i, j, _ = _positive_edges(form)
    return i, j, np.minimum(weight[i], weight[j])


def canonical_intrinsic_metric(form: GraphForm) -> PseudoMetric:
    """A canonical member of the intrinsic family: the path metric with edge
    lengths sigma(x,y) = min(sqrt(m(x)/deg(x)), sqrt(m(y)/deg(y))).

    Intrinsic by construction: sum_y b(x,y) sigma(x,y)^2 <= m(x) because
    sigma(x,y)^2 <= m(x)/deg(x), and shortest paths only shrink distances.
    Paths run on the edges b > 0 as a sparse graph, so lengths below 1e-8
    (a measure of 1e-16, say) count as edges, not as missing ones.  Dijkstra
    rounds d(x, y) and d(y, x) apart; the shorter is kept, so d is symmetric.
    """
    # the package's only scipy import, deferred to here (module docstring)
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import dijkstra

    i, j, sigma = _edge_lengths(form)
    # a length of inf, or of 0 from an overflowing degree, is no edge, and
    # an inf distance that this leaves is rejected
    keep = (sigma > 0.0) & (sigma < math.inf)
    i, j, sigma = i[keep], j[keep], sigma[keep]
    n = len(form.space)
    graph = csr_array((np.concatenate([sigma, sigma]),
                       (np.concatenate([i, j]), np.concatenate([j, i]))), shape=(n, n))
    dist = dijkstra(graph, directed=True)
    return PseudoMetric._trusted(form.space.vertices, np.minimum(dist, dist.T))


def _dijkstra_to(lengths: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dijkstra from each x[k] on the dense edge lengths (inf off the edges),
    run until every y[k] is settled; the sources step side by side.

    The distance it finds is the least float sum, added from x, over the
    paths from x to y: a vertex is settled at its least tentative value,
    which no later sum undercuts, since rounded addition is monotone.  So
    every Dijkstra finds it bit for bit, the full route's included."""
    sources, row = np.unique(x, return_inverse=True)
    rows, n = np.arange(len(sources)), len(lengths)
    dist = np.full((len(sources), n), math.inf)
    dist[rows, sources] = 0.0
    open_ = np.ones_like(dist, dtype=bool)
    wanted = np.zeros_like(open_)
    wanted[row, y] = True
    for _ in range(n):
        if not wanted.any():
            break
        u = np.where(open_, dist, math.inf).argmin(axis=1)
        open_[rows, u] = wanted[rows, u] = False
        np.minimum(dist, dist[rows, u, None] + lengths[u], out=dist)
    return dist[row, y]


def _canonical_on_pairs(form: GraphForm, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The canonical intrinsic metric of the form at the vertex pairs
    (p[k], q[k]), p[k] != q[k], bit for bit as ``canonical_intrinsic_metric``.

    Let s(x) be the shortest edge at x and t(x) = min_z fl(sigma(x,z) + s(z)).
    A float sum along a path only grows, and rounded addition is monotone,
    so a path of two or more edges from x to y is at least fl(s(x) + s(y)),
    and one of three or more, added from x, at least fl(t(x) + s(y)).  An
    edge no longer than the first bound is a shortest path.  Otherwise the
    shortest path of one or two edges, which adds alike from either end, is
    one if it is no longer than the second bound from x and from y.
    Dijkstra runs from both ends of the pairs left (d(x, y) and d(y, x)
    round apart), without scipy.  A form with an edge length of 0 or inf
    takes the full matrix, which drops those edges and rejects an infinite
    distance; a finite length is below sqrt(max float), so no path of the
    others overflows.
    """
    i, j, sigma = _edge_lengths(form)
    n = len(form.space)
    if not np.all((sigma > 0.0) & (sigma < math.inf)):
        return canonical_intrinsic_metric(form).d[p, q]
    lengths = np.full((n, n), math.inf)
    lengths[i, j] = lengths[j, i] = sigma
    shortest = lengths.min(axis=1)
    d = lengths[p, q]
    left = np.flatnonzero(~(d <= shortest[p] + shortest[q]))
    x, y = p[left], q[left]
    d[left] = np.minimum(d[left], (lengths[x] + lengths[y]).min(axis=1))
    start = (lengths + shortest).min(axis=1)
    left = left[~((d[left] <= start[x] + shortest[y]) & (d[left] <= start[y] + shortest[x]))]
    if left.size:
        x, y = p[left], q[left]
        d[left] = np.minimum(*np.split(_dijkstra_to(lengths, np.concatenate([x, y]),
                                                    np.concatenate([y, x])), 2))
    return d


def pushforward_metric(metric: PseudoMetric, iso: OrderIso) -> PseudoMetric:
    """Transport a metric on the source space to the target along tau; the
    permuted matrix keeps the entries and triangle gaps of the metric."""
    if metric.vertices != iso.source.vertices:
        raise SpaceMismatch("metric does not live on the iso's source space")
    idx = iso.tau_indices
    return PseudoMetric._trusted(iso.target.vertices, metric.d[np.ix_(idx, idx)])


def _canonical_energies(
    iso: OrderIso, form1: GraphForm, form2: GraphForm
) -> tuple[np.ndarray, np.ndarray]:
    """Jump energies of the canonical metric d of the first form on that
    form and of its pushforward d(tau(.), tau(.)) on the second, from d on
    the pairs they read: the first form's positive edges and the tau-images
    of the second form's."""
    i1, j1, _ = _positive_edges(form1)
    i2, j2, _ = _positive_edges(form2)
    tau = iso.tau_indices
    d = _canonical_on_pairs(form1, np.concatenate([i1, tau[i2]]),
                            np.concatenate([j1, tau[j2]]))
    d1, d2 = np.split(d, [len(i1)])
    return _jump_energy(form1, d1, d1), _jump_energy(form2, d2, d2)


def verify_intrinsic_bijection(
    iso: OrderIso, form1: GraphForm, form2: GraphForm, tol: Tolerance = DEFAULT_TOL
) -> VerificationReport:
    """Certify that pulling metrics along tau preserves the intrinsic family.

    The samples are scalings c d of the canonical metric d of the first
    form: ``canonical`` (c = 1) and ``inflated`` (c = 1.5); a one-vertex
    form, with no jump energy, gets the first only.  The jump energy of
    c d is c^2 times that of d, so with E1 the energy of d on the first form
    and E2 that of its pushforward d(tau(.), tau(.)) on the second, the
    slacks m1 - c^2 E1 and m2 - c^2 E2 decide both memberships.  They must
    coincide; a mismatch is reported with both slack vectors.

    d saturates the family (E1 = m where m/deg is least), so the zero
    metric and d rescaled to the boundary of the family add no check.
    """
    if not (is_recurrent(form1) and is_recurrent(form2)):
        raise NotRecurrent("the intrinsic-family comparison requires recurrent forms")
    require_intertwining(iso, form1, form2, tol)
    m1, m2 = form1.space.m, form2.space.m
    e1, e2 = _canonical_energies(iso, form1, form2)
    slacks = [("canonical", m1 - e1, m2 - e2)]
    if len(m1) > 1:
        with np.errstate(over="ignore"):  # 2.25 E may overflow to inf
            slacks.append(("inflated", m1 - 2.25 * e1, m2 - 2.25 * e2))

    report = VerificationReport()
    for name, slack1, slack2 in slacks:
        ok1, ok2 = _in_family(slack1, m1, tol), _in_family(slack2, m2, tol)
        detail = f"source={'in' if ok1 else 'out'} target={'in' if ok2 else 'out'}"
        if ok1 != ok2:
            detail += (
                f"; source slack={np.array2string(slack1, precision=6)}"
                f" target slack={np.array2string(slack2, precision=6)}"
            )
        report.add(
            f"intrinsic_pushforward_{name}",
            0.0 if ok1 == ok2 else 1.0,
            0.5,
            detail=detail,
        )
    return report
