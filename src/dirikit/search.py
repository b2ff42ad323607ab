"""Enumeration of intertwining order isomorphisms between two forms.

The operator constant is fixed to 1 by folding the scale into h through
the measure identity: given a vertex bijection tau the only compatible
scaling is h(y) = sqrt(m1(tau(y)) / m2(y)), so the search space is the
finite set of bijections.  Enumeration is a depth-first assignment of
target vertices in lexicographic order, each to a source vertex of its
domain in lexicographic order, with these pruning rules:

* the eigenvalue multisets of the two generators must match (similar
  matrices have equal spectra);
* every layer A of the search is a pair of matrices that any solution
  intertwines, U A1 = A2 U, each with a bound on the entries of
  U A1 - A2 U: the generators, within the tolerance, and the heat
  semigroups P_i = e^{-t L_i}, within their slack (below), whose dense
  entries see every distance in the graph;
* a source enters a target's domain only when the diagonal entry of
  U A1 - A2 U is within its layer's bound, for every layer;
* forward checking: assigning a target removes from every later target's
  domain the assigned source and each source whose entries of
  U A1 - A2 U against the assigned pair exceed their layer's bound; a
  branch ends as soon as some later domain is empty (violations never
  disappear when a partial assignment is extended, so no solution is
  lost);
* forced tails: when every remaining target has one source left, at the
  root or after a forward check, the search completes the assignment in
  one step, accepting it when those sources are distinct and every
  off-diagonal entry among those targets is within its bound, the test
  that forward checking would make one depth at a time; so each entry of
  each layer is checked exactly once, the diagonal at the root and every
  other entry by a forward check or by the completion;
* the search stops once ``max_solutions`` solutions are found.

The heat slack.  By Duhamel, U P1(t) - P2(t) U = -int_0^t P2(t - s) E
P1(s) ds with E = U L1 - L2 U.  Rows of P2 sum to at most 1 and columns of
P1 to at most max m1 / min m1, so every solution, whose entries of E are
all within the bound, has every entry of U P1 - P2 U within t * bound *
max m1 / min m1.  The slack adds the rounding of the computed E and of the
eigendecompositions behind P1 and P2 (see ``_heat_kernels``), so pruning
on it loses no solution.  The shared time is t = 1 / max diag L, the
diagonals being matched by any intertwiner.  The kernels are built only
when some target keeps more than one candidate source after the
generators' diagonal, because a forced path has nothing left to prune,
and only when their residuals are finite and can exceed the slack.

The domains live in one target x source matrix stamped with the depth
that removed each entry, so the search state is O(n^2) at any depth.
Results are returned in lexicographic order of tau as a vertex-id
sequence, the order in which the depth-first search meets them, and are
bit-identical across repeated runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GraphForm, _string_order
from .errors import InvalidSize, NonPositive, NotIrreducible
from .orderiso import OrderIso
from .spectral import is_irreducible, semigroup
from .tolerances import Tolerance


_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SearchOptions:
    tol: Tolerance = Tolerance(rel=1e-8)
    max_solutions: int = 1000

    def __post_init__(self):
        if self.max_solutions <= 0:
            raise InvalidSize("search options must be positive")


@dataclass(frozen=True)
class EquivalenceVerdict:
    solutions: tuple[OrderIso, ...] = ()
    reason: str | None = None  # size | spectrum | exhausted; None if equivalent

    @property
    def equivalent(self) -> bool:
        return bool(self.solutions)


def spectra_match(form1: GraphForm, form2: GraphForm, spectral_tol: float) -> bool:
    """Compare the sorted generator spectra, relatively per eigenvalue.

    Each eigenvalue may also differ by 8 n eps max|w|, the rounding of the
    two eigendecompositions: eigh is backward stable, so by Weyl's
    inequality a computed eigenvalue is off by a few n eps ||A|| at most,
    which dominates the small eigenvalues of a spectrum spanning many
    orders of magnitude.  A bound beyond the float range raises NumericOverflow.
    """
    w1 = form1.spectral.eigenvalues
    w2 = form2.spectral.eigenvalues
    if len(w1) != len(w2):
        return False
    rounding = 8.0 * len(w1) * _EPS * max(float(np.max(np.abs(w1))), float(np.max(np.abs(w2))))
    bound = Tolerance(rel=spectral_tol).bound(np.abs(w1)) + rounding
    return bool(np.all(np.abs(w1 - w2) <= bound))


# stamp of a (target, source) pair still in the target's domain; a removed
# pair holds the depth whose assignment removed it, -1 if never admitted
_ALIVE = np.iinfo(np.int32).max


def _forward_check(s1, s2, h, stamp, assignment, d, bounds) -> bool | None:
    """Assign target d to source x = assignment[d]: remove from the domain
    of every later target y the sources x' whose entries (y, d) or (d, y) of
    U A1 - A2 U exceed the bound of their layer, for each layer A of the
    stacks (the generators, then the heat kernels if any), and x itself.
    A NaN entry is removed, as it fails ``<=``; the heat layer has finite
    entries on the pairs still alive (``_heat_kernels``).

    Returns None when a later domain would become empty.  Returns True when
    every later domain is down to one source, a forced tail: those sources
    go to assignment[d + 1:] for ``_completes``.  Both stamp nothing.
    Otherwise stamps the removed pairs with d and returns False."""
    x = assignment[d]
    hd = h[d, x]
    hy = h[d + 1:]  # h[y, x']: the scaling if tau(y) = x'
    gap = np.maximum(
        np.abs(hy * s1[:, None, :, x] - s2[:, d + 1:, d, None] * hd),
        np.abs(hd * s1[:, None, x] - s2[:, d, d + 1:, None] * hy),
    )
    ok = (gap <= bounds).all(axis=0)
    ok[:, x] = False
    later = stamp[d + 1:]
    live = later == _ALIVE
    ok &= live
    if not ok.any(axis=1).all():
        return None
    if np.count_nonzero(ok) == len(ok):
        assignment[d + 1:] = ok.argmax(axis=1)
        return True
    later[live ^ ok] = d
    return False


def _completes(s1, s2, h, assignment, first, bounds) -> bool:
    """Whether the forced tail assignment[first:], each target with its only
    source left, completes a solution: its sources are distinct and every
    off-diagonal entry h(y) A1[tau y, tau y'] - A2[y, y'] h(y') among its
    targets is within its layer's bound, for every layer.  These are the
    entries that forward checking would test one depth at a time, in the
    same floating-point expression; the diagonal passed at the root, and the
    entries against the targets before ``first`` in their forward checks."""
    tail = assignment[first:]
    k = len(tail)
    if k == 1:
        return True
    if np.bincount(tail).max() > 1:
        return False
    ht = h[np.arange(first, len(h)), tail]
    gap = np.abs(ht[:, None] * s1[:, tail[:, None], tail] - s2[:, first:, first:] * ht)
    gap[:, range(k), range(k)] = 0.0
    return bool((gap <= bounds).all())


def _search(s1, s2, h, domain, bounds, cap) -> list[np.ndarray]:
    """Depth-first assignment of targets in index order to the sources of
    their domains in index order, stopping at ``cap`` solutions.  A tail of
    targets with one source each, at the root or after a forward check, is
    completed by ``_completes`` in one step.

    One int32 stamp matrix is the whole domain state: a branch removes
    pairs by stamping them with its depth and restores them when it is
    left, so memory stays O(n^2) at any depth.
    """
    counts = np.count_nonzero(domain, axis=1)
    if not counts.all():
        return []
    n = len(h)
    assignment = np.empty(n, dtype=np.intp)
    if counts.max() == 1:
        assignment[:] = domain.argmax(axis=1)
        return [assignment] if _completes(s1, s2, h, assignment, 0, bounds) else []
    stamp = np.where(domain, _ALIVE, -1).astype(np.int32)
    options = [iter(())] * n
    options[0] = iter(np.nonzero(domain[0])[0].tolist())
    solutions: list[np.ndarray] = []
    d = 0
    while d >= 0:
        x = next(options[d], None)
        if x is None:
            d -= 1
            if d >= 0:  # leave the branch taken at depth d
                later = stamp[d + 1:]
                later[later == d] = _ALIVE
            continue
        assignment[d] = x
        forced = _forward_check(s1, s2, h, stamp, assignment, d, bounds)
        if forced is None:
            continue
        if not forced:
            d += 1
            options[d] = iter(np.nonzero(stamp[d] == _ALIVE)[0].tolist())
        elif _completes(s1, s2, h, assignment, d + 1, bounds):
            solutions.append(assignment.copy())
            if len(solutions) == cap:
                break
    return solutions


def residual_bound(form1: GraphForm, form2: GraphForm, opts: SearchOptions) -> float:
    """Entrywise acceptance bound for U L1 - L2 U: ``opts.tol`` of max|L|."""
    return opts.tol.bound(max(float(np.max(np.abs(form1.L))), float(np.max(np.abs(form2.L)))))


def _heat_kernels(
    form1: GraphForm, form2: GraphForm, bound: float
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """The heat kernels P_i = e^{-t L_i} at t = 1 / max diag L and the slack
    of their forward check, or None when the check could not prune or its
    residuals could leave the float range.

    With hmax = sqrt(max m1 / min m2), the largest scaling, and lmax the
    largest generator magnitude, the slack is

        t (max m1 / min m1) (bound + 4 eps hmax lmax) + 64 n eps hmax.

    The first term is the Duhamel bound, with the bound on E widened by the
    rounding of its computed entries (at most 2 eps hmax lmax, taken
    twice).  The second is the floating-point allowance for the kernels.
    Each comes from the eigendecomposition of the symmetrized generator,
    whose norm is at most 2 max diag L = 2 / t; eigh is backward stable, so
    the symmetric kernel is off by about 8 n eps per entry at most (the
    backward error n eps ||A|| times t, the loss of orthogonality and the
    rounding of the products).  P_i[x, z] is that entry times
    sqrt(m_i(z) / m_i(x)), so the entry h(y) P1[x', x] - P2[y, d] h(d) of
    the residual is off by at most 16 n eps sqrt(m1(x) / m2(y)), and the
    entry (d, y) likewise: 64 n eps hmax leaves a factor of four.

    No residual entry exceeds hmax (max|P1| + max|P2|); when that reach is
    not above the slack the check could not prune, and when it is not
    finite a residual could be inf or NaN, so the kernels are not used.
    """
    top = max(float(np.max(np.diag(form1.L))), float(np.max(np.diag(form2.L))))
    if not top > 0.0:  # every rate below the float range
        return None
    t = 1.0 / top
    m1, m2 = form1.space.m, form2.space.m
    hmax = math.sqrt(float(np.max(m1)) / float(np.min(m2)))
    lmax = max(float(np.max(np.abs(form1.L))), float(np.max(np.abs(form2.L))))
    slack = t * (float(np.max(m1)) / float(np.min(m1))) * (bound + 4.0 * _EPS * hmax * lmax)
    slack += 64.0 * len(m1) * _EPS * hmax
    if not slack < math.inf:  # also catches a NaN
        return None
    p1, p2 = semigroup(form1, t), semigroup(form2, t)
    reach = hmax * (float(np.max(np.abs(p1))) + float(np.max(np.abs(p2))))
    if not slack < reach < math.inf:
        return None
    return p1, p2, slack


def _diagonal_domain(a1: np.ndarray, a2: np.ndarray, h: np.ndarray, bound: float) -> np.ndarray:
    """Target x source boolean matrix: whether the entry (y, y) of
    U A1 - A2 U, h(y) A1[x, x] - A2[y, y] h(y) with tau(y) = x, is within
    the bound.  A NaN entry fails it."""
    return np.abs(h * np.diag(a1)[None, :] - np.diag(a2)[:, None] * h) <= bound


def _intertwiners(form1: GraphForm, form2: GraphForm, opts: SearchOptions) -> list[OrderIso]:
    """The search of ``find_intertwiners`` on two irreducible forms of equal
    size and matching spectra."""
    bound = residual_bound(form1, form2, opts)
    # assignment proceeds through target vertices in lexicographic order,
    # trying source vertices in lexicographic order: solutions come out in
    # lexicographic order of the tau sequence
    perm2 = np.array(_string_order(form2.space.vertices))
    perm1 = np.array(_string_order(form1.space.vertices))
    m1, m2 = form1.space.m, form2.space.m
    # a measure ratio beyond the float range makes h inf and a residual
    # entry inf or 0 * inf = NaN, which fails its bound as it should; the
    # floating-point flags are silenced, not acted on
    with np.errstate(over="ignore", invalid="ignore"):
        # h[y, x]: the scaling of target y when tau(y) = x
        h = np.sqrt(m1[perm1][None, :] / m2[perm2][:, None])
        layers1, layers2 = [form1.L[np.ix_(perm1, perm1)]], [form2.L[np.ix_(perm2, perm2)]]
        bounds = [bound]
        domain = _diagonal_domain(layers1[0], layers2[0], h, bound)
        # a forced path, one candidate source per target, has nothing to prune
        if np.count_nonzero(domain, axis=1).max() > 1:
            heat = _heat_kernels(form1, form2, bound)
            if heat is not None:
                layers1.append(heat[0][np.ix_(perm1, perm1)])
                layers2.append(heat[1][np.ix_(perm2, perm2)])
                bounds.append(heat[2])
                domain &= _diagonal_domain(layers1[1], layers2[1], h, heat[2])
        assignments = _search(
            np.stack(layers1), np.stack(layers2), h, domain,
            np.array(bounds)[:, None, None], opts.max_solutions,
        )
    if not assignments:
        return []

    # tau is a bijection, as the search uses each source once; the domain
    # admits no infinite h, but a measure ratio below the float range
    # rounds h to 0
    taus = np.array(assignments)
    hs = h[np.arange(len(h)), taus]
    if not np.all(hs > 0.0):
        raise NonPositive("the scaling h must be strictly positive and finite")
    # beta as operator_constant computes it: the mean of h^2 m2 / m1(tau)
    # over the targets in storage order, from row-major rows (numpy sums a
    # column-major array's rows in another order, so beta could differ in
    # the last bit)
    storage = np.argsort(perm2)
    ratios = hs[:, storage] ** 2 * m2 / m1[perm1[taus[:, storage]]]
    betas = np.mean(np.ascontiguousarray(ratios), axis=1).tolist()
    targets = [form2.space.vertices[i] for i in perm2]
    sources = [form1.space.vertices[i] for i in perm1]
    return [
        OrderIso._trusted(
            form1.space, form2.space,
            dict(zip(targets, [sources[x] for x in tau])), dict(zip(targets, h_row)), beta,
        )
        for tau, h_row, beta in zip(taus.tolist(), hs.tolist(), betas)
    ]


def equivalence_verdict(
    form1: GraphForm, form2: GraphForm, opts: SearchOptions = SearchOptions()
) -> EquivalenceVerdict:
    """Decide whether two forms are intertwined by some order isomorphism;
    without one, the reason names the first failed test: size, spectrum or
    the exhausted search."""
    if not (is_irreducible(form1) and is_irreducible(form2)):
        raise NotIrreducible("intertwiner search requires irreducible forms")
    if len(form1.space) != len(form2.space):
        return EquivalenceVerdict(reason="size")
    if not spectra_match(form1, form2, opts.tol.rel):
        return EquivalenceVerdict(reason="spectrum")
    found = _intertwiners(form1, form2, opts)
    return EquivalenceVerdict(tuple(found)) if found else EquivalenceVerdict(reason="exhausted")


def find_intertwiners(
    form1: GraphForm, form2: GraphForm, opts: SearchOptions = SearchOptions()
) -> list[OrderIso]:
    """All order isomorphisms intertwining the two forms, operator constant 1.

    Returns the bijections tau (with the measure-induced scaling) whose
    intertwining residual stays within ``opts.tol``, entrywise
    ``tol.bound(max(max|L1|, max|L2|))``, in lexicographic order of tau
    as a vertex-id sequence, capped at ``opts.max_solutions``; none when
    the sizes differ or the spectra differ beyond ``tol.rel``.
    """
    return list(equivalence_verdict(form1, form2, opts).solutions)
