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
d(., A) ^ T because |d_A(x) - d_A(y)| <= d(x, y).
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.sparse.csgraph import shortest_path

from .core import GraphForm, _require_finite, generator
from .errors import (
    DimensionMismatch,
    HasKilling,
    InvalidMetric,
    NotConnected,
    NotRecurrent,
    NumericOverflow,
    SpaceMismatch,
)
from .orderiso import OrderIso, operator_constant, require_intertwining
from .report import VerificationReport
from .spectral import is_irreducible, is_recurrent
from .tolerances import DEFAULT_TOL, Tolerance


@dataclass(eq=False)
class PseudoMetric:
    """Symmetric nonnegative vertex-pair matrix with the triangle inequality,
    validated to the tolerance ``tol`` (not stored)."""

    vertices: tuple[str, ...]
    d: np.ndarray
    tol: InitVar[Tolerance] = DEFAULT_TOL

    def __post_init__(self, tol: Tolerance):
        self.vertices = tuple(self.vertices)
        d = np.asarray(self.d, dtype=float)
        n = len(self.vertices)
        if d.shape != (n, n):
            raise DimensionMismatch(f"metric shape {d.shape} does not match {n} vertices")
        if not np.all(np.isfinite(d)) or np.any(d < 0.0):
            raise InvalidMetric("entries must be finite and >= 0")
        scale = max(1.0, float(np.max(d)))
        bound = tol.bound(scale)
        gap = np.subtract(d, d.T)
        np.abs(gap, out=gap)
        if gap.max() > bound or np.max(np.abs(np.diag(d))) > bound:
            raise InvalidMetric("metric must be symmetric with zero diagonal")
        # triangle inequality d[i,k] <= d[i,j] + d[j,k], checked one pivot j
        # at a time in the same n x n buffer so that memory stays O(n^2)
        for j in range(n):
            np.add(d[:, j, None], d[j], out=gap)
            np.subtract(d, gap, out=gap)
            if gap.max() > bound:
                raise InvalidMetric("triangle inequality violated")
        d.flags.writeable = False
        self.d = d

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PseudoMetric)
            and self.vertices == other.vertices
            and np.array_equal(self.d, other.d)
        )

    def scaled(self, factor: float) -> "PseudoMetric":
        return PseudoMetric(self.vertices, factor * self.d)


class IntrinsicCheck(NamedTuple):
    ok: bool
    slack: np.ndarray


def _resistance_green(form: GraphForm) -> np.ndarray:
    """Grounded Green function of the measure-free form matrix, cached per form."""
    if not is_irreducible(form):
        raise NotConnected("effective resistance needs a connected conductance graph")
    if np.any(form.c != 0.0):
        raise HasKilling("effective resistance is undefined in the presence of killing")
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


def resistance_matrix(form: GraphForm, tol: Tolerance = DEFAULT_TOL) -> PseudoMetric:
    """The full resistance metric of a connected killing-free form,
    validated as a pseudo-metric to ``tol``; NumericOverflow when an entry
    leaves the floating-point range."""
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
    return PseudoMetric(form.space.vertices, d, tol)


def resistance_maximizer(form: GraphForm, x: str, y: str) -> np.ndarray:
    """The energy-one potential attaining the resistance supremum.

    The optimizer is the Green potential f = G (e_x - e_y), whose energy is
    f(x) - f(y) = R(x, y), normalized to unit energy; |f(x) - f(y)|^2 then
    equals R(x, y), as accurate as the rounded diagonal of the form matrix.
    """
    green = _resistance_green(form)
    i, j = form.space.index(x), form.space.index(y)
    dipole = np.zeros(len(form.space))
    dipole[i], dipole[j] = 1.0, -1.0
    f = green @ dipole
    return f / math.sqrt(f[i] - f[j])


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
    """
    if not (is_recurrent(form1) and is_recurrent(form2)):
        raise NotRecurrent("resistance comparison requires recurrent forms")
    require_intertwining(iso, generator(form1), generator(form2), tol)
    beta = operator_constant(iso)
    alpha = float(np.mean(iso.h_values))
    r1 = resistance_matrix(form1).d
    r2 = resistance_matrix(form2).d
    idx = iso.tau_indices
    lhs = alpha**2 * r1[np.ix_(idx, idx)]
    rhs = beta * r2

    report = VerificationReport()
    report.compare(
        "resistance_isometry", lhs, rhs, tol, detail=f"alpha={alpha!r} beta={beta!r}"
    )
    mass1 = form1.space.total_mass
    mass2 = form2.space.total_mass
    if abs(mass1 - mass2) <= tol.bound(max(mass1, mass2)):
        plain = float(np.max(np.abs(r1[np.ix_(idx, idx)] - r2)))
        residual = max(plain, abs(alpha - math.sqrt(beta)))
        report.add(
            "equal_mass_isometry", residual,
            tol.bound(max(1.0, float(np.max(r1)), float(np.max(r2)))),
        )
    else:
        report.skip("equal_mass_isometry", "total masses differ")
    return report


def _jump_energy(form: GraphForm, metric: PseudoMetric) -> np.ndarray:
    """Per-vertex jump energy sum_y b(x,y) d(x,y)^2, taken on the edges only:
    off the edges b = 0, even where d^2 overflows to inf."""
    w = form.weight_matrix
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sum(np.where(w > 0.0, w * metric.d**2, 0.0), axis=1)


def is_intrinsic(
    form: GraphForm, metric: PseudoMetric, tol: Tolerance = DEFAULT_TOL
) -> IntrinsicCheck:
    """Check the per-vertex bound sum_y b(x,y) d(x,y)^2 <= m(x).

    Returns the verdict together with the slack vector
    m(x) - sum_y b(x,y) d(x,y)^2 for diagnostics.
    """
    if metric.vertices != form.space.vertices:
        raise DimensionMismatch("metric does not live on the form's vertex set")
    slack = form.space.m - _jump_energy(form, metric)
    return IntrinsicCheck(bool(np.all(slack >= -tol.bound(form.space.m))), slack)


def canonical_intrinsic_metric(form: GraphForm) -> PseudoMetric:
    """A canonical member of the intrinsic family: the path metric with edge
    lengths sigma(x,y) = min(sqrt(m(x)/deg(x)), sqrt(m(y)/deg(y))).

    Intrinsic by construction: sum_y b(x,y) sigma(x,y)^2 <= m(x) because
    sigma(x,y)^2 <= m(x)/deg(x), and shortest paths only shrink distances.
    """
    if not is_irreducible(form):
        raise NotConnected("path metric needs a connected conductance graph")
    n = len(form.space)
    if n == 1:
        return PseudoMetric(form.space.vertices, np.zeros((1, 1)))
    deg = form.degrees
    # an overflowing weight is inf: min() drops it beside a finite one, and
    # PseudoMetric rejects the inf distance it leaves otherwise
    with np.errstate(over="ignore"):
        weight = np.sqrt(form.space.m / np.where(deg > 0.0, deg, 1.0))
    lengths = np.minimum(weight[:, None], weight[None, :])
    graph = np.where(form.weight_matrix > 0.0, lengths, 0.0)
    dist = shortest_path(graph, method="D", directed=False, unweighted=False)
    return PseudoMetric(form.space.vertices, dist)


def boundary_rescaled(
    form: GraphForm, metric: PseudoMetric
) -> PseudoMetric | None:
    """Scale a metric up until some vertex slack is exactly zero.

    Returns None for metrics with zero jump energy everywhere (nothing to
    saturate).
    """
    energy = _jump_energy(form, metric)
    positive = energy > 0.0
    if not np.any(positive):
        return None
    with np.errstate(over="ignore"):  # an overflowing ratio is inf and not the minimum
        factor = float(np.min(np.sqrt(form.space.m[positive] / energy[positive])))
    return metric.scaled(factor)


def default_metric_samples(form: GraphForm) -> list[tuple[str, PseudoMetric]]:
    """Sample metrics probing the intrinsic family from inside and outside.

    The zero metric, the canonical path metric, its rescaling to the
    boundary of the family (some slack exactly zero) and an inflation past
    the boundary (not intrinsic).
    """
    n = len(form.space)
    samples = [("zero", PseudoMetric(form.space.vertices, np.zeros((n, n))))]
    canonical = canonical_intrinsic_metric(form)
    samples.append(("canonical", canonical))
    boundary = boundary_rescaled(form, canonical)
    if boundary is not None:
        samples.append(("boundary", boundary))
        samples.append(("inflated", boundary.scaled(1.5)))
    return samples


def pushforward_metric(metric: PseudoMetric, iso: OrderIso) -> PseudoMetric:
    """Transport a metric on the source space to the target along tau."""
    if metric.vertices != iso.source.vertices:
        raise SpaceMismatch("metric does not live on the iso's source space")
    idx = iso.tau_indices
    return PseudoMetric(iso.target.vertices, metric.d[np.ix_(idx, idx)])


def verify_intrinsic_bijection(
    iso: OrderIso,
    form1: GraphForm,
    form2: GraphForm,
    samples: Sequence[tuple[str, PseudoMetric]] | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> VerificationReport:
    """Certify that pulling metrics along tau preserves the intrinsic family.

    For each sample metric d on the source space, membership of d in the
    intrinsic family of the first form must coincide with membership of
    the transported metric d(tau(.), tau(.)) in the family of the second.
    Mismatches are reported with both slack vectors.
    """
    if not (is_recurrent(form1) and is_recurrent(form2)):
        raise NotRecurrent("the intrinsic-family comparison requires recurrent forms")
    require_intertwining(iso, generator(form1), generator(form2), tol)
    if samples is None:
        samples = default_metric_samples(form1)

    report = VerificationReport()
    for name, metric in samples:
        check1 = is_intrinsic(form1, metric, tol)
        check2 = is_intrinsic(form2, pushforward_metric(metric, iso), tol)
        agree = check1.ok == check2.ok
        detail = f"source={'in' if check1.ok else 'out'} target={'in' if check2.ok else 'out'}"
        if not agree:
            detail += (
                f"; source slack={np.array2string(check1.slack, precision=6)}"
                f" target slack={np.array2string(check2.slack, precision=6)}"
            )
        report.add(
            f"intrinsic_pushforward_{name}",
            0.0 if agree else 1.0,
            0.5,
            detail=detail,
        )
    return report
