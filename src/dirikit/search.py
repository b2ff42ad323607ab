"""Enumeration of intertwining order isomorphisms between two forms.

An intertwining order isomorphism U = h tau is unitary up to a constant
beta, h^2 m2 = beta m1(tau), so with D_i = M_i^{1/2} it is D2 U D1^{-1} =
sqrt(beta) P for the permutation matrix P of tau, and the symmetrized
generators S_i = D_i L_i D_i^{-1} (``GraphForm.symmetric``) satisfy
P S1 = S2 P.  The search runs over the bijections on S, where neither h
nor units appear; h(y) = sqrt(m1(tau(y)) / m2(y)) and beta are computed
from the measures afterwards.  tau passes when each entry of
|S1[tau y, tau z] - S2[y, z]| is within rel sqrt(s(y) s(z)), s = diag S2
(``residual_bound``, the bound of certify's guard too), which no scaling
of b and c, of m, or Doob transform changes.

Enumeration is a depth-first assignment of target vertices in
lexicographic order, each to a source vertex of its domain in
lexicographic order, with these pruning rules:

* the eigenvalue multisets of the two generators must match (similar
  matrices have equal spectra); they are read from ``GraphForm.spectrum``,
  which builds no eigenvectors, so a pair that fails here, or whose
  domains are forced at the root, computes none;
* every layer A of the search is a pair of symmetric matrices that any
  solution carries onto each other, P A1 P^T = A2, each with a bound on
  the entries of P A1 P^T - A2: the generators S_i, within the bound
  above, and the heat kernels K_i = e^{-t S_i}, within their slack
  (below), whose dense entries see every distance in the graph;
* a source enters a target's domain only when the diagonal entry of
  P A1 P^T - A2 is within its bound, for every layer;
* forward checking: assigning a target removes from every later target's
  domain the assigned source and each source whose entry of
  P A1 P^T - A2 against the assigned pair exceeds its bound; a branch
  ends as soon as some later domain is empty (violations never disappear
  when a partial assignment is extended, so no solution is lost);
* forced tails: when every remaining target has one source left, at the
  root or after a forward check, the search completes the assignment in
  one step, accepting it when those sources are distinct and every
  off-diagonal entry among those targets is within its bound, the test
  that forward checking would make one depth at a time; so each entry of
  each layer is checked exactly once, the diagonal at the root and every
  other pair (y, z), (z, y) by a forward check or by the completion (the
  layers and bounds are bitwise symmetric);
* the search stops once ``max_solutions`` solutions are found.

The heat slack.  By Duhamel, P K1(t) P^T - K2(t) = -int_0^t K2(t - u) E
P K1(u) P^T du with E = P S1 P^T - S2.  K_i(u) = D_i e^{-u L_i} D_i^{-1}
is entrywise nonnegative and, e^{-u L_i} being sub-Markov, its rows sum
to at most sqrt(rho_i), rho_i = max m_i / min m_i.  Every entry of E of a
solution is within rel sqrt(s(y) s(z)) <= rel max s, so at t = 1 / max s
every entry of P K1 P^T - K2 is within rel sqrt(rho1 rho2).  The slack
adds the rounding of the computed bound and kernels (see
``_heat_kernels``), so pruning on it loses no solution.

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
from .orderiso import OrderIso, _entry_scale, _operator_constants
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
    """Compare the ascending generator spectra ``GraphForm.spectrum``,
    relatively per eigenvalue.

    Each eigenvalue may also differ by 8 n eps max|w|, the rounding of the
    two spectra: eigvalsh (LAPACK's dsyevd without eigenvectors, a
    tridiagonal reduction and dsterf) is backward stable like the full
    decomposition, so by Weyl's inequality a computed eigenvalue is off by
    a few n eps ||A|| at most, which dominates the small eigenvalues of a
    spectrum spanning many orders of magnitude.  A bound beyond the float
    range raises NumericOverflow.
    """
    w1 = form1.spectrum
    w2 = form2.spectrum
    if len(w1) != len(w2):
        return False
    rounding = 8.0 * len(w1) * _EPS * max(float(np.max(np.abs(w1))), float(np.max(np.abs(w2))))
    bound = Tolerance(rel=spectral_tol).bound(np.abs(w1)) + rounding
    return bool(np.all(np.abs(w1 - w2) <= bound))


# stamp of a (target, source) pair still in the target's domain; a removed
# pair holds the depth whose assignment removed it, -1 if never admitted
_ALIVE = np.iinfo(np.int32).max


def _forward_check(s1, s2, stamp, assignment, d, bounds) -> bool | None:
    """Assign target d to source x = assignment[d]: remove from the domain
    of every later target y the sources x' whose entry A1[x', x] - A2[y, d]
    of P A1 P^T - A2 exceeds its bound, for each layer A of the stacks (the
    generators, then the heat kernels if any), and x itself.  The layers
    and bounds are bitwise symmetric, so this also tests the entry (d, y).
    A NaN entry is removed, as it fails ``<=``.

    Returns None when a later domain would become empty.  Returns True when
    every later domain is down to one source, a forced tail: those sources
    go to assignment[d + 1:] for ``_completes``.  Both stamp nothing.
    Otherwise stamps the removed pairs with d and returns False."""
    x = assignment[d]
    gap = np.abs(s1[:, None, x] - s2[:, d, d + 1:, None])
    ok = (gap <= bounds[:, d, d + 1:, None]).all(axis=0)
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


def _completes(s1, s2, assignment, first, bounds) -> bool:
    """Whether the forced tail assignment[first:], each target with its only
    source left, completes a solution: its sources are distinct and every
    off-diagonal entry A1[tau y, tau y'] - A2[y, y'] among its targets is
    within its bound, for every layer.  These are the entries that forward
    checking would test one depth at a time, in the same floating-point
    expression; the diagonal passed at the root, and the entries against
    the targets before ``first`` in their forward checks."""
    tail = assignment[first:]
    k = len(tail)
    if k == 1:
        return True
    if np.bincount(tail).max() > 1:
        return False
    gap = np.abs(s1[:, tail[:, None], tail] - s2[:, first:, first:])
    gap[:, range(k), range(k)] = 0.0
    return bool((gap <= bounds[:, first:, first:]).all())


def _search(s1, s2, domain, bounds, cap) -> list[np.ndarray]:
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
    n = len(domain)
    assignment = np.empty(n, dtype=np.intp)
    if counts.max() == 1:
        assignment[:] = domain.argmax(axis=1)
        return [assignment] if _completes(s1, s2, assignment, 0, bounds) else []
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
        forced = _forward_check(s1, s2, stamp, assignment, d, bounds)
        if forced is None:
            continue
        if not forced:
            d += 1
            options[d] = iter(np.nonzero(stamp[d] == _ALIVE)[0].tolist())
        elif _completes(s1, s2, assignment, d + 1, bounds):
            solutions.append(assignment.copy())
            if len(solutions) == cap:
                break
    return solutions


def residual_bound(form: GraphForm, opts: SearchOptions) -> np.ndarray:
    """Entrywise acceptance bound for P S1 P^T - S2, S2 the symmetrized
    generator of the target ``form``: ``opts.tol`` of sqrt(s(y) s(z)) at
    (y, z), s = diag S2 = diag L2, in storage order."""
    return opts.tol.bound(_entry_scale(form.L))


def _heat_kernel(form: GraphForm, t: float) -> np.ndarray:
    """The symmetric heat kernel e^{-t S} = V e^{-t Lambda} V^T, V the
    orthonormal eigenvectors of S, averaged with its transpose."""
    data = form.spectral
    v = data.eigenvectors * np.sqrt(form.space.m)[:, None]
    kernel = (v * np.exp(-t * data.eigenvalues)) @ v.T
    return 0.5 * (kernel + kernel.T)


def _heat_kernels(
    form1: GraphForm, form2: GraphForm, rel: float
) -> tuple[np.ndarray, np.ndarray, float] | None:
    """The heat kernels K_i = e^{-t S_i} at t = 1 / max s, s the diagonal of
    S2, and the slack of their forward check, or None when that check could
    not prune or t leaves the float range.  With rho_i = max m_i / min m_i,
    the slack is

        rel (1 + 16 eps) sqrt(rho1 rho2) + 64 n eps.

    The first term is the Duhamel bound of the module docstring; the factor
    1 + 16 eps covers the rounding of the bound on E, of t and of rho, a
    few eps each.  E is the residual of the very matrices S_i whose kernels
    these are, both being ``GraphForm.symmetric``.  The second term is the
    floating-point allowance for the kernels.  S_i has norm at most
    2 max diag S_i, which is 2 / t for S2 and, when a solution exists, for
    S1 up to the factor 1 + rel; eigh is backward stable, so a kernel
    entry is off by about 8 n eps at most (the backward error n eps ||S||
    times t, the loss of orthogonality, the rescaling of the m-orthonormal
    eigenvectors and the rounding of the products), and an entry of the
    residual by 16 n eps: 64 n eps leaves a factor of four.

    A kernel is symmetric with eigenvalues in (0, 1] and nonnegative
    entries, so its entries lie in [0, 1] and a slack of 1 or more prunes
    nothing; this includes a measure ratio beyond the float range.  A
    subnormal max s makes t infinite, and -t times a -0.0 eigenvalue NaN.
    """
    top = float(np.max(np.diag(form2.symmetric)))
    m1, m2 = form1.space.m, form2.space.m
    rho = float(np.max(m1)) / float(np.min(m1)) * (float(np.max(m2)) / float(np.min(m2)))
    slack = rel * (1.0 + 16.0 * _EPS) * math.sqrt(rho) + 64.0 * len(m1) * _EPS
    t = 1.0 / top if top > 0.0 else math.inf
    if not (t < math.inf and slack < 1.0):  # max s zero or subnormal, or no pruning
        return None
    return _heat_kernel(form1, t), _heat_kernel(form2, t), slack


def _diagonal_domain(a1: np.ndarray, a2: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Target x source boolean matrix: whether the entry (y, y) of
    P A1 P^T - A2, A1[x, x] - A2[y, y] with tau(y) = x, is within its
    bound.  A NaN entry fails it."""
    return np.abs(np.diag(a1)[None, :] - np.diag(a2)[:, None]) <= np.diag(bound)[:, None]


def _intertwiners(form1: GraphForm, form2: GraphForm, opts: SearchOptions) -> list[OrderIso]:
    """The search of ``find_intertwiners`` on two irreducible forms of equal
    size and matching spectra."""
    # assignment proceeds through target vertices in lexicographic order,
    # trying source vertices in lexicographic order: solutions come out in
    # lexicographic order of the tau sequence
    perm2 = np.array(_string_order(form2.space.vertices))
    perm1 = np.array(_string_order(form1.space.vertices))
    ix1, ix2 = np.ix_(perm1, perm1), np.ix_(perm2, perm2)
    layers1, layers2 = [form1.symmetric[ix1]], [form2.symmetric[ix2]]
    bounds = [residual_bound(form2, opts)[ix2]]
    domain = _diagonal_domain(layers1[0], layers2[0], bounds[0])
    # the kernels are built only when some target keeps more than one
    # candidate source: a forced path has nothing left to prune
    if np.count_nonzero(domain, axis=1).max() > 1:
        heat = _heat_kernels(form1, form2, opts.tol.rel)
        if heat is not None:
            layers1.append(heat[0][ix1])
            layers2.append(heat[1][ix2])
            bounds.append(np.full_like(bounds[0], heat[2]))
            domain &= _diagonal_domain(layers1[1], layers2[1], bounds[1])
    assignments = _search(np.stack(layers1), np.stack(layers2), domain, np.stack(bounds),
                          opts.max_solutions)
    if not assignments:
        return []

    # tau is a bijection, as the search uses each source once; a measure
    # ratio beyond the float range rounds h to 0 or inf
    taus = np.array(assignments)
    m1, m2 = form1.space.m, form2.space.m
    with np.errstate(over="ignore"):
        hs = np.sqrt(m1[perm1[taus]] / m2[perm2])
    if not np.all((hs > 0.0) & (hs < math.inf)):
        raise NonPositive("the scaling h must be strictly positive and finite")
    storage = np.argsort(perm2)
    betas = _operator_constants(hs[:, storage], m2, m1[perm1[taus[:, storage]]]).tolist()
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
    if not (form1.irreducible and form2.irreducible):
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

    Returns the bijections tau, each with the measure-induced scaling
    h(y) = sqrt(m1(tau(y)) / m2(y)), for which every entry of P S1 P^T - S2
    is within ``residual_bound``, in lexicographic order of tau as a
    vertex-id sequence, capped at ``opts.max_solutions``; none when the
    sizes differ or the spectra differ beyond ``tol.rel``.  NonPositive
    when the h of a solution is not a positive float.
    """
    return list(equivalence_verdict(form1, form2, opts).solutions)
