"""Order isomorphisms between finite Dirichlet spaces.

An invertible positivity-preserving operator U between L^2(X1, m1) and
L^2(X2, m2) with positivity-preserving inverse factors as a weighted
composition operator

    (U f)(y) = h(y) f(tau(y))

for a vertex bijection tau: X2 -> X1 and a strictly positive scaling h on
X2.  This module measures how far such operators are from intertwining
two generators, and certifies the rigidity identities an exact
intertwiner must satisfy: U*U and UU* are a single positive constant
beta, h^2 m2 is the beta-scaled pullback of m1, the forms differ by the
factor beta on all basis pairs, h is excessive for the target semigroup,
and h is constant whenever both forms are recurrent.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import GraphForm, MeasureSpace, VertexFunction
from .errors import (
    DimensionMismatch,
    NonPositive,
    NotBijective,
    NotExcessive,
    NotIntertwining,
    NotIrreducible,
    NumericOverflow,
    SpaceMismatch,
)
from .report import VerificationReport
from .spectral import _excess_deficit, is_excessive, is_recurrent
from .tolerances import DEFAULT_TOL, Tolerance


@dataclass(eq=False)
class OrderIso:
    """A candidate intertwiner: bijection tau plus positive scaling h.

    ``tau`` maps target vertices to source vertices and ``h`` assigns each
    target vertex its scaling factor.
    """

    source: MeasureSpace
    target: MeasureSpace
    tau: dict[str, str]
    h: dict[str, float]

    def __post_init__(self):
        targets = set(self.target.vertices)
        if set(self.tau) != targets:
            raise NotBijective("tau must be defined exactly on the target vertices")
        images = list(self.tau.values())
        if len(set(images)) != len(images) or set(images) != set(self.source.vertices):
            raise NotBijective("tau must map the target bijectively onto the source")
        if set(self.h) != targets:
            raise DimensionMismatch("h must be defined exactly on the target vertices")
        if not all(0.0 < value < math.inf for value in self.h.values()):  # NaN fails
            raise NonPositive("the scaling h must be strictly positive and finite")

    @classmethod
    def _trusted(cls, source, target, tau, h, beta) -> "OrderIso":
        """An iso whose tau maps the target bijectively onto the source and
        whose h is finite and positive by construction, without checking
        them again, and ``beta`` from ``_operator_constants``."""
        iso = cls.__new__(cls)
        iso.source, iso.target, iso.tau, iso.h, iso.beta = source, target, tau, h, beta
        return iso

    @cached_property
    def beta(self) -> float:
        """The operator constant ||U||^2, ``operator_constant(self)``."""
        return operator_constant(self)

    @cached_property
    def tau_indices(self) -> np.ndarray:
        """Source index of tau(y) for each target position y."""
        return np.array([self.source.index(self.tau[y]) for y in self.target.vertices])

    @cached_property
    def h_values(self) -> np.ndarray:
        return np.array([float(self.h[y]) for y in self.target.vertices])

    @classmethod
    def identity(cls, space: MeasureSpace) -> "OrderIso":
        names = space.vertices
        return cls(space, space, {v: v for v in names}, {v: 1.0 for v in names})


def _operator_constants(h: np.ndarray, m2: np.ndarray, m1_tau: np.ndarray) -> np.ndarray:
    """The mean of h^2 m2 / m1(tau) over targets in storage order, one per
    row, summed from row-major rows: numpy sums a column-major array's rows
    in another order, and beta could differ in the last bit."""
    return np.mean(np.ascontiguousarray(h**2 * m2 / m1_tau), axis=-1)


def operator_constant(iso: OrderIso) -> float:
    """Mean diagonal of U*U, i.e. the average of h(y)^2 m2(y) / m1(tau(y))."""
    return float(_operator_constants(iso.h_values, iso.target.m, iso.source.m[iso.tau_indices]))


def intertwining_residual(iso: OrderIso, form1: GraphForm, form2: GraphForm) -> float:
    """Max-norm of U L1 - L2 U as a matrix; zero iff U intertwines the
    semigroups at all times.

    U has one nonzero per row, so the entries are gathered without forming
    U: (U L1 - L2 U)[y, tau(z)] = h(y) L1[tau(y), tau(z)] - L2[y, z] h(z).
    """
    if iso.source != form1.space:
        raise SpaceMismatch("iso source does not match the first form")
    if iso.target != form2.space:
        raise SpaceMismatch("iso target does not match the second form")
    idx, h = iso.tau_indices, iso.h_values
    gap = h[:, None] * form1.L[np.ix_(idx, idx)] - form2.L * h[None, :]
    return float(np.max(np.abs(gap)))


def require_intertwining(
    iso: OrderIso, form1: GraphForm, form2: GraphForm, tol: Tolerance = DEFAULT_TOL
) -> float:
    """The intertwining residual, or NotIntertwining when it exceeds
    ``tol.rel`` times max h * max|L| of the two generators.

    The bound is purely relative: an absolute floor, or a scale floored at
    1, would pass a wrong tau whenever h or L is small.  NumericOverflow when
    that scale leaves the floating-point range but the residual does not,
    since an infinite bound would pass every finite residual.
    """
    residual = intertwining_residual(iso, form1, form2)
    scale = float(np.max(iso.h_values)) * max(
        float(np.max(np.abs(form1.L))), float(np.max(np.abs(form2.L)))
    )
    if np.isfinite(residual) and not np.isfinite(scale):
        raise NumericOverflow("intertwining residual scale leaves the floating-point range")
    bound = tol.bound(scale)
    if not (residual <= bound and np.isfinite(residual)):
        raise NotIntertwining(
            f"intertwining residual {residual:.3e} exceeds tolerance {bound:.3e}"
        )
    return residual


def _require_normal(name: str, value: float) -> float:
    """The value, or NumericOverflow when it is no positive normal float: a
    zero or subnormal constant makes its check's bound vacuous or coarse,
    an infinite one its residual NaN."""
    if not sys.float_info.min <= value < math.inf:  # NaN fails
        raise NumericOverflow(f"{name}={value!r} leaves the range of positive normal floats")
    return value


def certify(
    iso: OrderIso, form1: GraphForm, form2: GraphForm, tol: Tolerance = DEFAULT_TOL
) -> VerificationReport:
    """Verify the rigidity identities of an intertwining order isomorphism.

    Requires the intertwining residual to vanish within tolerance and both
    forms to be irreducible.  Checks, each with its residual:

    * ``operator_constant``: U*U = beta I and U U* = beta I for one beta,
      that is h(y)^2 m2(y) = beta m1(tau(y)) for all y;
    * ``form_scaling``: Q2(U e_i, U e_j) = beta Q1(e_i, e_j) on basis pairs;
    * ``scaling_excessive``: h is excessive for the target generator;
    * ``scaling_constancy`` and ``measure_pushforward``: when both forms
      are recurrent, h is constant and tau pushes m2 to a multiple of m1
      (skipped, with the observed h ratio recorded, otherwise).

    NumericOverflow when beta, or alpha = beta / mean(h)^2 of the
    pushforward, is no positive normal float.
    """
    require_intertwining(iso, form1, form2, tol)
    if not (form1.irreducible and form2.irreducible):
        raise NotIrreducible("certification requires irreducible forms")

    report = VerificationReport()
    with np.errstate(over="ignore"):  # an infinite beta raises below
        beta = _require_normal("beta", operator_constant(iso))
    # U and U* have one nonzero per row, so nothing is multiplied densely and
    # everything is read in target order y, with x = tau(y): the nonzero of
    # U* in row x is w(y) = m2(y) h(y) / m1(x), U*U and UU* are diagonal with
    # (U*U)[x, x] = (UU*)[y, y] = w(y) h(y), and
    # (U^T F2 U)[tau(y), tau(z)] = h(y) F2[y, z] h(z).
    tau, h = iso.tau_indices, iso.h_values
    w = iso.target.m * h / iso.source.m[tau]
    op_residual = float(np.max(np.abs(w * h - beta)))
    report.add("operator_constant", op_residual, tol.bound(beta), detail=f"beta={beta!r}")

    gram2 = h[:, None] * form2.form_matrix * h[None, :]
    gram1 = beta * form1.form_matrix[np.ix_(tau, tau)]
    report.compare("form_scaling", gram1, gram2, tol)

    deficit, exc_scale = _excess_deficit(form2, h)
    report.add("scaling_excessive", deficit, tol.bound(exc_scale))

    ratio = float(np.max(h) / np.min(h))
    if is_recurrent(form1) and is_recurrent(form2):
        report.add("scaling_constancy", ratio - 1.0, tol.bound(1.0))
        h_const = float(np.mean(h))
        try:
            alpha = beta / h_const**2
        except ZeroDivisionError:  # the square underflows where alpha need not
            alpha = beta / h_const / h_const
        _require_normal("alpha", alpha)
        pulled = alpha * iso.source.m[tau]
        push_residual = float(np.max(np.abs(iso.target.m - pulled) / pulled))
        report.add(
            "measure_pushforward", push_residual, tol.bound(1.0),
            detail=f"alpha={alpha!r}",
        )
    else:
        report.skip(
            "scaling_constancy",
            f"pair not recurrent; observed h max/min ratio = {ratio!r}",
        )
    return report


def doob_pair(
    form: GraphForm, h_excessive: VertexFunction, tol: Tolerance = DEFAULT_TOL
) -> tuple[GraphForm, OrderIso]:
    """Conjugate a form by a strictly positive excessive function.

    The returned form lives on the measure h^2 m with generator
    M_{1/h} L M_h, re-extracted as conductances b2(x,y) = h(x) h(y) b(x,y)
    and killing c2(x) = h(x) m(x) (L h)(x); c2 >= 0 exactly because h is
    excessive.  The accompanying order isomorphism (tau = id, scaling 1/h)
    intertwines the two forms with operator constant 1.
    """
    h = form.space.vector(h_excessive)
    if not 0.0 < h.min() <= h.max() < np.inf:  # NaN fails both
        raise NonPositive("the conjugating function must be strictly positive")
    if not is_excessive(form, h, tol):
        raise NotExcessive("the conjugating function must be excessive")

    names = form.space.vertices
    i, j = form.edge_indices
    weights = (h[i] * h[j] * form.weights).tolist()
    # c2 has the sign of L h, whose dip below zero is within the tolerance
    # of its scale (is_excessive): clip that rounding
    c2 = np.maximum(h * form.space.m * (form.L @ h), 0.0)

    space2 = MeasureSpace(names, h**2 * form.space.m)
    form2 = GraphForm._from_columns(space2, *form.edge_ends(), weights, c2)
    iso = OrderIso(
        source=form.space,
        target=space2,
        tau={v: v for v in names},
        h=dict(zip(names, (1.0 / h).tolist())),
    )
    return form2, iso
