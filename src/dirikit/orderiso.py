"""Order isomorphisms between finite Dirichlet spaces.

An invertible positivity-preserving operator U between L^2(X1, m1) and
L^2(X2, m2) with positivity-preserving inverse is a weighted composition
operator (U f)(y) = h(y) f(tau(y)), for a vertex bijection tau: X2 -> X1
and a strictly positive scaling h on X2.  An intertwiner is unitary up to
a constant beta, so U L1 = L2 U is one statement, P S1 P^T = S2 on the
symmetrized generators, which the search and ``require_intertwining`` test
entry by entry within one bound (``search.residual_bound``).  ``certify``
and ``verify_jump_transform`` then check the rigidity identities of an
exact intertwiner: U*U = UU* = beta, h^2 m2 = beta m1(tau), the forms and
jump measures differ by beta, h is excessive for the target semigroup, and
constant when both forms are recurrent.

A graph form is its jump weights and its killing (Beurling-Deny), and an
intertwiner carries jump measure to jump measure, so every identity but
the recurrent pair's geometric ones is 0 = 0 off the diagonal and the two
edge patterns.  The guard and those checks read these n + 2|E| entries
only (``_Entries``), never an n x n matrix: a transient certificate costs
O(n + |E|) memory and makes no BLAS call.  Each names the worst entry of
the whole matrix, the first in row-major order among equals, and raises
NumericOverflow where a bound off the entries would.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property

import numpy as np

from .core import (
    GraphForm,
    MeasureSpace,
    VertexFunction,
    _raise_first_fault,
    _require_killing,
    _require_measure,
)
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
from .report import VerificationReport, worst_entry
from .spectral import _excess
from .tolerances import DEFAULT_TOL, Tolerance


class OrderIso:
    """A candidate intertwiner: bijection tau plus positive scaling h.

    ``tau`` maps target vertices to source vertices and ``h`` assigns each
    target vertex its scaling factor.  Both are stored once, as read-only
    arrays in target storage order, ``tau_indices`` (the source index of
    tau(y)) and ``h_values``; the dicts ``tau`` and ``h`` are built from
    them on first read, in the same order.
    """

    def __init__(self, source: MeasureSpace, target: MeasureSpace, tau: dict, h: dict):
        targets = set(target.vertices)
        if set(tau) != targets:
            raise NotBijective("tau must be defined exactly on the target vertices")
        images = list(tau.values())
        if len(set(images)) != len(images) or set(images) != set(source.vertices):
            raise NotBijective("tau must map the target bijectively onto the source")
        if set(h) != targets:
            raise DimensionMismatch("h must be defined exactly on the target vertices")
        if not all(0.0 < value < math.inf for value in h.values()):  # NaN fails
            raise NonPositive("the scaling h must be strictly positive and finite")
        self.source, self.target = source, target
        self.tau_indices = np.array([source.index(tau[y]) for y in target.vertices])
        self.h_values = np.array([float(h[y]) for y in target.vertices])
        self.tau_indices.flags.writeable = self.h_values.flags.writeable = False

    @classmethod
    def _trusted(cls, source, target, tau_indices, h_values, beta) -> "OrderIso":
        """An iso from read-only arrays, a bijection of the target onto the
        source and a finite positive h by construction, without checking
        them again, and ``beta`` from ``_operator_constants``."""
        iso = cls.__new__(cls)
        iso.source, iso.target, iso.beta = source, target, beta
        iso.tau_indices, iso.h_values = tau_indices, h_values
        return iso

    @cached_property
    def beta(self) -> float:
        """The operator constant ||U||^2, the mean diagonal of U*U: the mean
        of h(y)^2 m2(y) / m1(tau(y)); inf past the float range."""
        m1_tau = self.source.m[self.tau_indices]
        with np.errstate(over="ignore"):
            return float(_operator_constants(self.h_values, self.target.m, m1_tau))

    @cached_property
    def tau(self) -> dict[str, str]:
        """tau(y) for each target vertex y, in target storage order."""
        sources = self.source.vertices
        return dict(zip(self.target.vertices, [sources[x] for x in self.tau_indices.tolist()]))

    @cached_property
    def h(self) -> dict[str, float]:
        """h(y) for each target vertex y, in target storage order."""
        return dict(zip(self.target.vertices, self.h_values.tolist()))

    @classmethod
    def identity(cls, space: MeasureSpace) -> "OrderIso":
        names = space.vertices
        return cls(space, space, {v: v for v in names}, {v: 1.0 for v in names})


def _operator_constants(h: np.ndarray, m2: np.ndarray, m1_tau: np.ndarray) -> np.ndarray:
    """The mean of h^2 m2 / m1(tau) over targets in storage order, one per
    row, summed from row-major rows: numpy sums a column-major array's rows
    in another order, and beta could differ in the last bit."""
    return np.ascontiguousarray(h**2 * m2 / m1_tau).mean(axis=-1)


class _Entries:
    """The entries of an n x n matrix in target coordinates on which a
    check of ``certify`` can be nonzero: the diagonal, then both
    orientations of each pair {y, z}, y < z, that is an edge of g2 or whose
    image under tau is an edge of g1.  Off them L, F and W of both forms
    are 0, so every identity holds exactly.  ``rows`` and ``cols`` list the
    entries and ``codes`` their row-major indices r n + c; at each entry
    (r, c), ``f2`` holds F2 = diag(deg2 + c2) - W2, ``f1`` F1 at (tau r,
    tau c), and ``h_rows`` and ``h_cols`` h(r) and h(c); ``m1`` is m1(tau y)
    per target y.  W = -F off the diagonal, bit for bit, -0.0 included.

    Both forms' pair codes are sorted, and compared: they are equal for an
    intertwiner of forms without zero weights, and a union is formed only
    where they differ.
    """

    def __init__(self, iso: OrderIso, form1: GraphForm, form2: GraphForm):
        n = len(iso.target)
        tau, h = iso.tau_indices, iso.h_values
        back = np.empty(n, np.intp)
        back[tau] = np.arange(n)
        ends1 = back[form1.edge_indices]
        code1, order1 = _pair_codes(n, ends1)
        code2, order2 = _pair_codes(n, form2.edge_indices)
        w1, w2 = form1.weights[order1], form2.weights[order2]
        if code1.shape == code2.shape and (code1 == code2).all():
            pairs = code2
        else:
            pairs = np.union1d(code1, code2)
            w1, w2 = _placed(pairs, code1, w1), _placed(pairs, code2, w2)
        y, z = np.divmod(pairs, n)
        diagonal = np.arange(n)
        self.rows = np.concatenate((diagonal, y, z))
        self.cols = np.concatenate((diagonal, z, y))
        self.codes = self.rows * n + self.cols
        f1, f2 = -w1, -w2  # F = -W off the diagonal
        self.f1 = np.concatenate((form1.form_diagonal[tau], f1, f1))
        self.f2 = np.concatenate((form2.form_diagonal, f2, f2))
        self.h_rows, self.h_cols = h[self.rows], h[self.cols]
        self.m1 = iso.source.m[tau]


def _pair_codes(n: int, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The codes min(y, z) n + max(y, z) of the pairs (y, z) of ``ends``,
    sorted, and the order that sorts them."""
    y, z = ends
    code = np.minimum(y, z) * n + np.maximum(y, z)
    order = code.argsort()
    return code[order], order


def _placed(codes: np.ndarray, sub: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``values`` at the places of the sorted ``sub`` in the sorted ``codes``, 0 elsewhere."""
    out = np.zeros(len(codes))
    out[np.searchsorted(codes, sub)] = values
    return out


def _residual_gap(iso: OrderIso, form1: GraphForm, form2: GraphForm) -> tuple[_Entries, np.ndarray]:
    """The entries that can be nonzero and |U L1 - L2 U| on them: at
    (y, tau z), |h(y) L1[tau y, tau z] - L2[y, z] h(z)| as entry (y, z),
    without forming U or L; inf or NaN past the float range, whose warnings
    each caller's one errstate silences.  NumericOverflow, form 1's first,
    when an entry of an L is not finite (``GraphForm.generator_diagonal``)."""
    if iso.source != form1.space:
        raise SpaceMismatch("iso source does not match the first form")
    if iso.target != form2.space:
        raise SpaceMismatch("iso target does not match the second form")
    form1.generator_diagonal, form2.generator_diagonal  # NumericOverflow, form 1's first
    entries = _Entries(iso, form1, form2)
    return entries, np.abs(entries.h_rows * (entries.f1 / entries.m1[entries.rows])
                           - (entries.f2 / iso.target.m[entries.rows]) * entries.h_cols)


def intertwining_residual(iso: OrderIso, form1: GraphForm, form2: GraphForm) -> float:
    """Max-norm of U L1 - L2 U, zero iff U intertwines the semigroups: a
    diagnostic in the units of L and h, not the acceptance test (that is
    ``require_intertwining``), kept because perfbench/layers.py times it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_residual_gap(iso, form1, form2)[1].max())


def require_intertwining(
    iso: OrderIso, form1: GraphForm, form2: GraphForm, tol: Tolerance = DEFAULT_TOL
) -> _Entries:
    """NotIntertwining naming the worst entry (``worst_entry``) when an entry
    of U L1 - L2 U exceeds its bound, the search's (``search.residual_bound``)
    in L coordinates: ``tol.rel`` h(y) sqrt(m1(tau z) / m1(tau y)) sqrt(s(y)
    s(z)) at (y, z), s = diag L2.  For h = c sqrt(m1(tau) / m2) that is the
    test |S1[tau y, tau z] - S2[y, z]| <= rel sqrt(s(y) s(z)) times c
    sqrt(m1(tau z) / m2(y)); another h fails it where it varies on an edge.
    NumericOverflow when a bound leaves the float range where its residual
    does not, as it would pass any residual; off the entries of ``_Entries``
    the residual is 0, so a bound there that is not finite raises it too,
    found by counting them (``Tolerance.outer_bound``).  Returns the
    entries, which the checks past the guard read."""
    with np.errstate(over="ignore", invalid="ignore"):
        entries, gap = _residual_gap(iso, form1, form2)
        root, root_m1 = np.sqrt(form2.generator_diagonal), np.sqrt(entries.m1)
        left, right = iso.h_values / root_m1 * root, root_m1 * root
    bound, nonfinite = tol.outer_bound(left, right, entries.rows, entries.cols)
    if nonfinite:  # else every bound of the n x n matrix is finite
        finite = np.isfinite(bound)
        if nonfinite > np.count_nonzero(~finite) or (np.isfinite(gap) & ~finite).any():
            raise NumericOverflow("intertwining residual bound leaves the floating-point range")
    if not (gap <= bound).all():
        k = worst_entry(gap, bound, entries.codes)
        y, z = np.divmod(entries.codes[k], len(iso.target))
        names = iso.target.vertices
        raise NotIntertwining(
            f"intertwining residual {gap[k]:.3e} exceeds its bound {bound[k]:.3e}"
            f" at the entry ({names[y]!r}, {names[z]!r}) of the targets"
        )
    return entries


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
      are recurrent, h is constant and tau pushes m2 to alpha m1(tau)
      (skipped, with the observed h ratio recorded, otherwise).  This
      alpha is beta / mean(h)^2: beta over the square of the alpha, mean(h),
      that ``verify_resistance_isometry`` reports.

    Every check but the recurrent pair's reads the diagonal and the two
    edge lists only (``_Entries``), never an n x n matrix; its worst entry
    is the first in row-major order, as in a dense matrix.  NumericOverflow
    when beta or this alpha is no positive normal float.
    """
    entries = require_intertwining(iso, form1, form2, tol)
    return _certify_checks(iso, form1, form2, tol, entries)


def _form_bound(iso: OrderIso, form2: GraphForm, tol: Tolerance, entries: _Entries) -> np.ndarray:
    """The bound of ``form_scaling`` and ``jump_transform`` at the entries:
    rel h(y) h(z) sqrt(F2[y, y] F2[z, z]) at (y, z)."""
    root = iso.h_values * np.sqrt(form2.form_diagonal)
    return tol.outer_bound(root, root, entries.rows, entries.cols)[0]


def _certify_checks(
    iso: OrderIso, form1: GraphForm, form2: GraphForm, tol: Tolerance, entries: _Entries
) -> VerificationReport:
    """The checks of ``certify`` for an iso that has passed the guard, on
    its entries, after its precondition: NotIrreducible unless both forms
    are."""
    if not (form1.irreducible and form2.irreducible):
        raise NotIrreducible("certification requires irreducible forms")

    report = VerificationReport()
    beta = _require_normal("beta", iso.beta)
    # U and U* have one nonzero per row, so nothing is multiplied densely and
    # everything is read in target order y, with x = tau(y): the nonzero of
    # U* in row x is w(y) = m2(y) h(y) / m1(x), U*U and UU* are diagonal with
    # (U*U)[x, x] = (UU*)[y, y] = w(y) h(y), and
    # (U^T F2 U)[tau(y), tau(z)] = h(y) F2[y, z] h(z), F = -b off the diagonal.
    h = iso.h_values
    w = iso.target.m * h / entries.m1
    op_residual = float(np.abs(w * h - beta).max())
    report.add("operator_constant", op_residual, tol.bound(beta), detail=f"beta={beta!r}")

    report.compare("form_scaling", beta * entries.f1, entries.h_rows * entries.f2 * entries.h_cols,
                   _form_bound(iso, form2, tol, entries), codes=entries.codes)

    _, deficit, exc_scale = _excess(form2, h)
    report.add("scaling_excessive", deficit, tol.bound(exc_scale))

    ratio = float(h.max() / h.min())
    if form1.recurrent and form2.recurrent:
        report.add("scaling_constancy", ratio - 1.0, tol.bound(1.0))
        h_const = float(h.mean())
        square = h_const**2  # 0 where it underflows, which alpha need not
        alpha = _require_normal("alpha", beta / square if square else beta / h_const / h_const)
        pulled = alpha * entries.m1
        push_residual = float((np.abs(iso.target.m - pulled) / pulled).max())
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


def verify_jump_transform(
    iso: OrderIso, form1: GraphForm, form2: GraphForm, tol: Tolerance = DEFAULT_TOL
) -> VerificationReport:
    """Certify how the jump measure transports along an intertwiner.

    A form is Q(f, f) = sum J(x, y) (f(x) - f(y))^2 + sum k(x) f(x)^2 over
    ordered pairs x != y, with J = b / 2 on each orientation of an edge and
    k = c (``jsonio.jump_to_obj`` writes the split); it has no strongly
    local part.  An intertwiner has beta J1(tau x, tau y) = h(x) h(y)
    J2(x, y) on every pair, here within the bound of ``form_scaling``, rel
    h(x) h(y) sqrt(F2[x, x] F2[y, y]), whose off-diagonal half this is.  It
    is checked on the guard's entries, as 0 = 0 holds off them.
    """
    entries = require_intertwining(iso, form1, form2, tol)
    return _jump_transform_checks(iso, form1, form2, tol, entries)


def _jump_transform_checks(
    iso: OrderIso, form1: GraphForm, form2: GraphForm, tol: Tolerance, entries: _Entries
) -> VerificationReport:
    """The check of ``verify_jump_transform`` for an iso that has passed the
    guard, on its entries; J is 0 on the diagonal, and W = -F off it."""
    report = VerificationReport()
    w1 = -entries.f1
    w1[:len(iso.target)] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing h^2 is a FAIL
        beta = iso.beta
        rhs = entries.h_rows * entries.h_cols * (0.5 * -entries.f2)
        rhs[:len(iso.target)] = 0.0
        report.compare("jump_transform", beta * (0.5 * w1), rhs,
                       _form_bound(iso, form2, tol, entries), detail=f"beta={beta!r}",
                       codes=entries.codes)
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

    Both are built from the source's arrays, the partner by the source's
    ``GraphForm._on_keys``: it shares the source's ids, index, edge keys
    and key order, read-only, and its connectivity when every positive b
    keeps a positive product.  What only a partner can get wrong is checked
    in the constructors' order, with their errors: the measure h^2 m
    (NonPositiveMeasure), the products, the first bad one named in key
    order, and the killing (NegativeWeight), and 1/h (NonPositive).
    """
    space = form.space
    h = space.vector(h_excessive)
    if not 0.0 < h.min() <= h.max() < np.inf:  # NaN fails both
        raise NonPositive("the conjugating function must be strictly positive")
    lh, deficit, scale = _excess(form, h)
    if not deficit <= tol.bound(scale):  # is_excessive
        raise NotExcessive("the conjugating function must be excessive")

    i, j = form.edge_indices
    with np.errstate(over="ignore", invalid="ignore"):  # each is checked below
        m2 = h**2 * space.m
        weights = h[i] * h[j] * form.weights
        # c2 has the sign of L h, whose dip below zero is within the
        # tolerance of its scale (is_excessive): clip that rounding
        c2 = np.maximum(h * space.m * lh, 0.0)
        scaling = 1.0 / h
        beta = float(_operator_constants(scaling, m2, space.m))  # inf is certify's to refuse
    _require_measure(m2)
    if not np.isfinite(weights).all():  # h(x) h(y) b is >= 0 where finite
        _raise_first_fault(space, zip(*form.edge_ends(), weights.tolist()))
    _require_killing(c2)
    if not np.isfinite(scaling).all():
        raise NonPositive("the scaling h must be strictly positive and finite")
    form2 = form._on_keys(m2, weights, c2)
    tau = np.arange(len(space))
    scaling.flags.writeable = tau.flags.writeable = False
    return form2, OrderIso._trusted(space, form2.space, tau, scaling, beta)
